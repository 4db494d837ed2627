// Mux implements the client side of the binary frame protocol: many
// tuning sessions multiplexed over one connection with request
// pipelining. Where the JSON line protocol costs one connection and
// one strict request/reply round trip per session per operation, a Mux
// batches the concurrent operations of all its sessions into shared
// frames and correlates replies by sequence number, so a single
// connection carries thousands of interleaved campaigns.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"

	"harmony/internal/proto"
)

// ErrMuxClosed is returned by calls on a Mux that was closed locally.
var ErrMuxClosed = errors.New("client: mux closed")

// muxOpQueue bounds the operations waiting for the writer goroutine.
// When it fills, callers block in Call — backpressure that keeps a
// burst of sessions from buffering unbounded frames in memory.
const muxOpQueue = 256

// muxMaxBatch caps the messages packed into one outgoing frame.
const muxMaxBatch = 64

// Mux is a multiplexed binary-protocol connection. Each Session
// obtained from Register (or Attach) is used by one goroutine at a
// time, but any number of sessions may share the Mux concurrently;
// their operations are batched into common frames. Create with
// DialMux or NewMuxFromConn.
type Mux struct {
	conn net.Conn
	bw   *bufio.Writer
	br   *bufio.Reader

	ops  chan *proto.Message // queued for the writer; Seq already assigned
	done chan struct{}       // closed on first failure or Close

	mu      sync.Mutex
	calls   map[uint64]chan *proto.Message // in-flight Seq -> reply slot
	nextSeq uint64
	err     error

	wg sync.WaitGroup
}

// DialMux connects to a Harmony server at addr (host:port) and
// negotiates the binary protocol.
func DialMux(addr string) (*Mux, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("client: %w", err)
	}
	m, err := NewMuxFromConn(nc)
	if err != nil {
		// The handshake failed; the socket carries nothing further.
		_ = nc.Close()
		return nil, err
	}
	return m, nil
}

// NewMuxFromConn negotiates the binary protocol over an existing
// connection (tests use net.Pipe) and starts the mux goroutines. On
// error the caller still owns the connection.
func NewMuxFromConn(nc net.Conn) (*Mux, error) {
	bw := bufio.NewWriter(nc)
	if err := proto.WriteHandshake(bw); err != nil {
		return nil, fmt.Errorf("client: handshake: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return nil, fmt.Errorf("client: handshake: %w", err)
	}
	br := bufio.NewReader(nc)
	if err := proto.ReadHandshake(br); err != nil {
		return nil, fmt.Errorf("client: handshake: %w", err)
	}
	m := &Mux{
		conn:  nc,
		bw:    bw,
		br:    br,
		ops:   make(chan *proto.Message, muxOpQueue),
		done:  make(chan struct{}),
		calls: make(map[uint64]chan *proto.Message),
	}
	m.wg.Add(2)
	go m.writeLoop()
	go m.readLoop()
	return m, nil
}

// fail latches the mux's terminal error once: it stops both loops,
// closes the transport, and delivers nil to every in-flight call so
// no caller is left waiting.
func (m *Mux) fail(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return
	}
	m.err = err
	close(m.done)
	_ = m.conn.Close() // the transport error already describes the failure
	for seq, ch := range m.calls {
		delete(m.calls, seq)
		ch <- nil // reply slots are buffered; delivery never blocks
	}
}

// Err returns the terminal error of a failed mux, or nil while it is
// healthy.
func (m *Mux) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// Close shuts the mux down. In-flight calls fail with ErrMuxClosed.
func (m *Mux) Close() error {
	m.fail(ErrMuxClosed)
	m.wg.Wait()
	return nil
}

// writeLoop packs queued operations into frames: it blocks for the
// first message, then drains whatever else is already queued (up to
// muxMaxBatch) into the same frame, and flushes the socket only when
// the queue momentarily empties.
func (m *Mux) writeLoop() {
	defer m.wg.Done()
	var frameID uint64
	for {
		var first *proto.Message
		select {
		case first = <-m.ops:
		case <-m.done:
			return
		}
		msgs := []*proto.Message{first}
	batch:
		for len(msgs) < muxMaxBatch {
			select {
			case op := <-m.ops:
				msgs = append(msgs, op)
			default:
				break batch
			}
		}
		frameID++
		if err := proto.WriteFrame(m.bw, &proto.Frame{ID: frameID, Msgs: msgs}); err != nil {
			m.fail(fmt.Errorf("client: mux send: %w", err))
			return
		}
		if len(m.ops) == 0 {
			if err := m.bw.Flush(); err != nil {
				m.fail(fmt.Errorf("client: mux send: %w", err))
				return
			}
		}
	}
}

// readLoop delivers each reply to the call that carries its Seq.
func (m *Mux) readLoop() {
	defer m.wg.Done()
	for {
		f, err := proto.ReadFrame(m.br)
		if err != nil {
			m.fail(fmt.Errorf("client: mux recv: %w", err))
			return
		}
		for _, r := range f.Msgs {
			m.mu.Lock()
			ch, ok := m.calls[r.Seq]
			delete(m.calls, r.Seq)
			m.mu.Unlock()
			if ok {
				ch <- r
			}
			// A reply with no waiting call (a duplicate, or a peer
			// inventing sequence numbers) is dropped: there is nobody
			// to deliver it to.
		}
	}
}

// Call performs one protocol operation over the mux: it assigns a
// sequence number, queues the message, and blocks until the matching
// reply arrives or the mux fails. Concurrent Calls pipeline — none
// waits for another's reply.
func (m *Mux) Call(msg *proto.Message) (*proto.Message, error) {
	ch := make(chan *proto.Message, 1)
	m.mu.Lock()
	if m.err != nil {
		err := m.err
		m.mu.Unlock()
		return nil, err
	}
	m.nextSeq++
	seq := m.nextSeq
	m.calls[seq] = ch
	m.mu.Unlock()
	cp := *msg
	cp.Seq = seq
	select {
	case m.ops <- &cp:
	case <-m.done:
		// The mux failed before the message was queued; fail already
		// delivered nil to the registered reply slot.
	}
	r := <-ch
	if r == nil {
		return nil, m.Err()
	}
	if r.Type == proto.TypeError {
		return nil, fmt.Errorf("client: server error: %s", r.Error)
	}
	return r, nil
}

func (m *Mux) roundTrip(msg proto.Message) (*proto.Message, error) { return m.Call(&msg) }

// MuxSession is the name a Session obtained from a Mux used to have.
type MuxSession = Session

// Register creates a tuning session on the server over the mux.
func (m *Mux) Register(reg Registration) (*Session, error) { return register(m, reg) }

// Attach joins an existing session by id.
func (m *Mux) Attach(sessionID string) *Session {
	return &Session{t: m, id: sessionID}
}
