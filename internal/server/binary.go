package server

import (
	"bufio"
	"io"
	"net"
	"slices"

	"harmony/internal/proto"
)

// handleBinary serves one connection speaking the binary frame
// protocol (see proto/binary.go). Requests are pipelined: every message
// of a frame is dispatched as it arrives and the reply frame is written
// inline, carrying the frame ID and per-message Seq of its requests, so
// a client may keep any number of frames in flight. The request frame,
// the reply messages and the encoding buffer are the connection's own
// and are reused for every frame.
//
// The socket is flushed whenever the next request frame is not already
// complete in the read buffer: a pipelined burst's replies leave in few
// syscalls, and no reply waits on a frame the peer has not finished
// sending. A peer that stops draining its replies blocks the write, and
// with it the reads, so backpressure reaches the client's TCP window
// instead of growing server memory.
func (s *Server) handleBinary(conn net.Conn, br *bufio.Reader) {
	if err := proto.ReadHandshake(br); err != nil {
		s.Logf("harmony server: binary handshake: %v", err)
		return
	}
	bw := bufio.NewWriter(conn)
	if err := proto.WriteHandshake(bw); err != nil {
		s.Logf("harmony server: binary handshake reply: %v", err)
		return
	}
	if err := bw.Flush(); err != nil {
		s.Logf("harmony server: binary handshake reply: %v", err)
		return
	}

	var req, reply proto.Frame
	var buf []byte
	for {
		if err := proto.ReadFrameInto(br, &req); err != nil {
			if err != io.EOF {
				s.Logf("harmony server: binary recv: %v", err)
			}
			return
		}
		reply.ID = req.ID
		reply.Msgs = slices.Grow(reply.Msgs[:0], len(req.Msgs))[:len(req.Msgs)]
		for i, m := range req.Msgs {
			r := reply.Msgs[i]
			if r == nil {
				r = new(proto.Message)
				reply.Msgs[i] = r
			}
			s.dispatch(m, r)
			r.Seq = m.Seq
		}
		var err error
		if buf, err = proto.AppendFrame(buf[:0], &reply); err == nil {
			_, err = bw.Write(buf)
		}
		if err == nil && !proto.FrameBuffered(br) {
			err = bw.Flush()
		}
		if err != nil {
			s.Logf("harmony server: binary send: %v", err)
			return
		}
	}
}
