package client

import (
	"errors"
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"harmony/internal/proto"
)

// brokenDeadlineConn models a connection that is already dead: every
// attempt to arm a deadline fails, the way a closed TCP socket
// reports "use of closed network connection".
type brokenDeadlineConn struct {
	exchanges atomic.Int32 // Read/Write attempts after the failed arm
}

func (c *brokenDeadlineConn) Read(p []byte) (int, error) {
	c.exchanges.Add(1)
	return 0, io.EOF
}

func (c *brokenDeadlineConn) Write(p []byte) (int, error) {
	c.exchanges.Add(1)
	return len(p), nil
}

func (c *brokenDeadlineConn) Close() error { return nil }

func (c *brokenDeadlineConn) SetDeadline(time.Time) error {
	return errors.New("use of closed network connection")
}

// TestDeadlineArmFailureFailsAttempt: when SetDeadline fails, the
// round trip must fail immediately rather than fall through to an
// exchange with no deadline (the bug would hang the client on a dead
// connection until TCP gives up).
func TestDeadlineArmFailureFailsAttempt(t *testing.T) {
	bc := &brokenDeadlineConn{}
	c := NewFromConn(proto.NewConn(bc))
	c.opts = Options{Timeout: 50 * time.Millisecond, Retries: 3}

	_, _, err := c.Attach("s1").Fetch()
	if err == nil {
		t.Fatal("expected an error when the deadline cannot be armed")
	}
	if !strings.Contains(err.Error(), "set deadline") {
		t.Errorf("error = %v, want the set-deadline failure surfaced", err)
	}
	if n := bc.exchanges.Load(); n != 0 {
		t.Errorf("client performed %d unbounded I/O operations after the deadline failed to arm; want 0", n)
	}
}
