// Mux implements the client side of the binary frame protocol: many
// tuning sessions multiplexed over one connection with request
// pipelining. Where the JSON line protocol costs one connection and
// one strict request/reply round trip per session per operation, a Mux
// lets the concurrent operations of all its sessions share one
// connection and correlates replies by sequence number, so a single
// connection carries thousands of interleaved campaigns.
package client

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"harmony/internal/proto"
)

// errMuxClosed is returned by calls on a Mux that was closed locally.
var errMuxClosed = errors.New("client: mux closed")

// Mux is a multiplexed binary-protocol connection. Each Session
// obtained from Register (or Attach) is used by one goroutine at a
// time, but any number of sessions may share the Mux concurrently.
// As in net/rpc's client, every call writes its own frame from the
// caller's goroutine, and one reader goroutine hands each reply to the
// call that carries its Seq. Create with DialMux or NewMuxFromConn.
type Mux struct {
	conn net.Conn
	br   *bufio.Reader

	wmu     sync.Mutex // held while a call writes its frame
	writers atomic.Int32
	bw      *bufio.Writer // under wmu, as are seq and buf
	seq     uint64
	buf     []byte

	mu    sync.Mutex
	calls map[uint64]*call // registered for their reply, by Seq
	free  []*call          // records whose reply was delivered
	err   error

	wg sync.WaitGroup // the reader
}

// call is the record of one operation in flight: the request, by value,
// the reply the reader copies in, and the signal that it did (false
// when the mux failed instead). Records are recycled through Mux.free.
// A record goes back only after its reply arrived, and the reader
// delivers a reply only after taking the record out of Mux.calls. A
// call that fails drops its record, which only the reader can still
// hold.
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
// connection (tests use net.Pipe) and starts the reader. On error the
// caller still owns the connection.
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
	m := &Mux{conn: nc, bw: bw, br: br, calls: make(map[uint64]*call)}
	m.wg.Add(1)
	go m.readLoop()
	return m, nil
}

// fail latches the mux's terminal error once: it closes the transport,
// which stops the reader and unblocks a writer, and fails every call
// awaiting a reply so no caller is left waiting.
func (m *Mux) fail(err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.err != nil {
		return
	}
	m.err = err
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

// send writes c's request as a frame of its own. writers counts the
// calls waiting for wmu or holding it; one that leaves another still
// waiting leaves the flush to it, so a burst shares syscalls and its
// last writer flushes every frame of it. A peer that stops reading
// blocks the writer in Write or Flush.
func (m *Mux) send(c *call) error {
	m.writers.Add(1)
	m.wmu.Lock()
	defer m.wmu.Unlock()
	err := m.write(c)
	if m.writers.Add(-1) == 0 && err == nil {
		err = m.bw.Flush()
	}
	return err
}

// write numbers c's request, encodes it into the reused buffer and
// registers c for its reply before writing: the reader may see the
// reply before Write returns. It registers nothing on a failed mux.
func (m *Mux) write(c *call) error {
	m.seq++
	c.req.Seq = m.seq
	buf, err := proto.AppendFrame(m.buf[:0], &proto.Frame{ID: m.seq, Msgs: []*proto.Message{&c.req}})
	if err != nil {
		return err
	}
	m.buf = buf
	m.mu.Lock()
	if err := m.err; err != nil {
		m.mu.Unlock()
		return err
	}
	m.calls[m.seq] = c
	m.mu.Unlock()
	_, err = m.bw.Write(buf)
	return err
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

// roundTrip performs one protocol operation over the mux: it writes
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
	if err := m.send(c); err != nil {
		m.fail(fmt.Errorf("client: mux send: %w", err))
		return m.failure()
	}
	if !<-c.done {
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
