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

// errMuxClosed is returned by calls on a Mux that was closed locally.
var errMuxClosed = errors.New("client: mux closed")

// muxOpQueue bounds the operations waiting for the writer goroutine.
// When it fills, callers block in their round trip — backpressure
// that keeps a burst of sessions from buffering unbounded frames in
// memory.
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

	ops  chan *call    // queued for the writer, which assigns each its Seq
	done chan struct{} // closed on first failure or Close

	mu    sync.Mutex
	calls map[uint64]*call // encoded, awaiting their reply, by Seq
	free  []*call          // records whose reply was delivered
	err   error

	wg sync.WaitGroup
}

// call is the record of one operation in flight: the request, by value,
// the reply the reader copies in, and the signal that it did (false
// when the mux failed instead). Records are recycled through Mux.free.
// A record goes back only after its reply arrived, and a reply proves
// the writer has encoded the request: the writer registers a record in
// Mux.calls only after encoding it. A call that fails drops its record,
// which the writer or reader may still hold.
type call struct {
	req   proto.Message
	reply proto.Message
	done  chan bool
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
		ops:   make(chan *call, muxOpQueue),
		done:  make(chan struct{}),
		calls: make(map[uint64]*call),
	}
	m.wg.Add(2)
	go m.writeLoop()
	go m.readLoop()
	return m, nil
}

// fail latches the mux's terminal error once: it stops both loops,
// closes the transport, and fails every call awaiting a reply so no
// caller is left waiting (a call still queued sees done closed).
func (m *Mux) fail(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return
	}
	m.err = err
	close(m.done)
	_ = m.conn.Close() // the transport error already describes the failure
	for seq, c := range m.calls {
		delete(m.calls, seq)
		c.done <- false // buffered, and nothing else signals a registered call
	}
}

// failure returns the terminal error of a failed mux, or nil while it
// is healthy.
func (m *Mux) failure() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.err
}

// Close shuts the mux down. In-flight calls fail with errMuxClosed.
func (m *Mux) Close() error {
	m.fail(errMuxClosed)
	m.wg.Wait()
	return nil
}

// writeLoop packs queued operations into frames: it blocks for the
// first message, then drains whatever else is already queued (up to
// muxMaxBatch) into the same frame, and flushes the socket only when
// the queue momentarily empties. It numbers the requests, encodes the
// frame, and only then registers the calls for their replies.
func (m *Mux) writeLoop() {
	defer m.wg.Done()
	var (
		batch        []*call
		frame        proto.Frame
		buf          []byte
		frameID, seq uint64
	)
	for {
		select {
		case c := <-m.ops:
			batch = append(batch[:0], c)
		case <-m.done:
			return
		}
	drain:
		for len(batch) < muxMaxBatch {
			select {
			case c := <-m.ops:
				batch = append(batch, c)
			default:
				break drain
			}
		}
		frameID++
		frame.ID, frame.Msgs = frameID, frame.Msgs[:0]
		for _, c := range batch {
			seq++
			c.req.Seq = seq
			frame.Msgs = append(frame.Msgs, &c.req)
		}
		var err error
		if buf, err = proto.AppendFrame(buf[:0], &frame); err != nil {
			m.fail(fmt.Errorf("client: mux send: %w", err))
			return
		}
		m.mu.Lock()
		for _, c := range batch {
			m.calls[c.req.Seq] = c
		}
		m.mu.Unlock()
		if _, err := m.bw.Write(buf); err != nil {
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

// readLoop decodes every reply frame into one reused Frame and hands
// each reply to the call that carries its Seq.
func (m *Mux) readLoop() {
	defer m.wg.Done()
	var f proto.Frame
	for {
		if err := proto.ReadFrameInto(m.br, &f); err != nil {
			m.fail(fmt.Errorf("client: mux recv: %w", err))
			return
		}
		for _, r := range f.Msgs {
			m.mu.Lock()
			c, ok := m.calls[r.Seq]
			delete(m.calls, r.Seq)
			m.mu.Unlock()
			if ok {
				// Swapped, not copied: the frame takes the record's old
				// message, whose Values map the next decode reuses.
				c.reply, *r = *r, c.reply
				c.done <- true
			}
			// A reply with no waiting call (a duplicate, or a peer
			// inventing sequence numbers) is dropped: there is nobody
			// to deliver it to.
		}
	}
}

// roundTrip performs one protocol operation over the mux: it queues
// the message and blocks until the matching reply arrives or the mux
// fails. Concurrent round trips pipeline — none waits for another's
// reply. It decodes into reply, which it swaps with the call record's:
// the record keeps reply's old Values map for a later decode.
func (m *Mux) roundTrip(msg proto.Message, reply *proto.Message) error {
	m.mu.Lock()
	if m.err != nil {
		err := m.err
		m.mu.Unlock()
		return err
	}
	var c *call
	if n := len(m.free); n > 0 {
		c, m.free = m.free[n-1], m.free[:n-1]
	}
	m.mu.Unlock()
	if c == nil {
		c = &call{done: make(chan bool, 1)}
	}
	c.req = msg
	select {
	case m.ops <- c:
	case <-m.done:
		return m.failure()
	}
	var ok bool
	select {
	case ok = <-c.done:
	case <-m.done:
		// A reply delivered before the failure still counts.
		select {
		case ok = <-c.done:
		default:
		}
	}
	if !ok {
		return m.failure()
	}
	*reply, c.reply = c.reply, *reply
	m.mu.Lock()
	m.free = append(m.free, c)
	m.mu.Unlock()
	if reply.Type == proto.TypeError {
		return fmt.Errorf("client: server error: %s", reply.Error)
	}
	return nil
}

// Register creates a tuning session on the server over the mux.
func (m *Mux) Register(reg Registration) (*Session, error) { return register(m, reg) }

// Attach joins an existing session by id.
func (m *Mux) Attach(sessionID string) *Session {
	return &Session{t: m, id: sessionID}
}
