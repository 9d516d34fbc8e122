package rpc

import (
	"context"
	"sync"
	"sync/atomic"
)

// Client-side receive-frame leasing.
//
// The server side of the TCP transport has always pooled its receive
// buffers: a request frame has one well-defined recycle point (the
// response write). Client-side response buffers never had one — Call hands
// them to the caller, decoded views (proto.SplitBulk, tensor.Decode) alias
// them, and nothing knows when the last view dies. Frame supplies the
// missing mechanism: a refcounted lease on one pooled receive buffer.
// Every holder of a view into the frame retains a reference; when the last
// reference is released the buffer goes back to the transport's receive
// pool. A holder that forgets to release never corrupts anything — the
// frame simply stays out of the pool and the GC reclaims it like any other
// allocation — so leasing is an opt-in optimization, not a new obligation
// for existing callers.
//
// Opting in is per call, via context: WithFrameSink attaches a sink, and a
// TCP connection that sees one reads the response's bulk payload into a
// pooled buffer and deposits the frame (reference count 1, owned by the
// caller) in the sink. Wrapping connections (Pool, resilient.Conn,
// FaultConn) pass contexts through untouched, so the opt-in tunnels
// through every middleware without widening the Conn interface. Transports
// without pooled receive paths (in-process, where buffers are shared by
// reference and owned by the server) simply leave the sink empty; callers
// must treat a nil frame as "no lease needed".

// Frame is a refcounted lease on one pooled receive buffer. The response
// bulk payload of the call that produced it aliases Bytes(); every
// retained view must hold a reference via Retain/Release. Safe for
// concurrent use.
type Frame struct {
	buf  []byte
	refs atomic.Int32
}

// NewFrame wraps buf in a frame with one outstanding reference. When the
// last reference is released the buffer is returned to the transport's
// receive pool (when its capacity matches a pool class; anything else is
// left to the GC).
func NewFrame(buf []byte) *Frame {
	f := &Frame{buf: buf}
	f.refs.Store(1)
	framesLeased.Add(1)
	return f
}

// framesLeased and framesReturned count, process-wide, the frames created
// and the frames whose final release recycled their buffer.
var framesLeased, framesReturned atomic.Uint64

// FrameCounts reports how many receive frames have been leased and how
// many have gone back to the pool since the process started. The
// difference is the number of frames still held (or leaked to the GC by a
// holder that never released them).
func FrameCounts() (leased, returned uint64) {
	return framesLeased.Load(), framesReturned.Load()
}

// Bytes returns the leased buffer. Valid only while the caller holds a
// reference.
func (f *Frame) Bytes() []byte { return f.buf }

// Retain takes one more reference. The frame must currently be live
// (references > 0).
func (f *Frame) Retain() {
	if f == nil {
		return
	}
	if f.refs.Add(1) <= 1 {
		panic("rpc: Frame.Retain after final release")
	}
}

// Release drops one reference; the last release recycles the buffer into
// the receive pool. Releasing more times than retained is a bug and
// panics: a silent extra release would recycle a buffer somebody still
// aliases.
func (f *Frame) Release() {
	if f == nil {
		return
	}
	switch n := f.refs.Add(-1); {
	case n == 0:
		buf := f.buf
		f.buf = nil
		putBuf(buf)
		framesReturned.Add(1)
	case n < 0:
		panic("rpc: Frame.Release without matching reference")
	}
}

// Refs reports the current reference count (tests and accounting).
func (f *Frame) Refs() int32 {
	if f == nil {
		return 0
	}
	return f.refs.Load()
}

// FrameSink receives the leased receive frame of one Call. One sink serves
// one logical call at a time: a retry that succeeds after an earlier
// attempt already deposited a frame replaces (and releases) the stale one,
// so middleware like resilient.Conn needs no frame awareness at all.
type FrameSink struct {
	mu sync.Mutex
	f  *Frame
}

// set deposits f, releasing any previously deposited frame (a failed
// earlier attempt whose response was produced and then discarded by a
// middleware layer).
func (s *FrameSink) set(f *Frame) {
	s.mu.Lock()
	old := s.f
	s.f = f
	s.mu.Unlock()
	old.Release()
}

// Take removes and returns the deposited frame (nil when the call's
// transport does not pool receive buffers, or the response had no bulk
// payload). The caller owns the frame's reference and must Release it —
// after a failed call, immediately.
func (s *FrameSink) Take() *Frame {
	s.mu.Lock()
	f := s.f
	s.f = nil
	s.mu.Unlock()
	return f
}

type frameSinkKey struct{}

// WithFrameSink opts the next Call on the returned context into leased
// receive frames: a pooling transport will read the response bulk into a
// pooled buffer and deposit its Frame in the sink. The response Message's
// Bulk aliases the frame, so the caller must Release the frame only after
// every view into the response is dead (or hand it to a longer-lived
// lease holder, e.g. the client's segment cache).
func WithFrameSink(ctx context.Context) (context.Context, *FrameSink) {
	s := &FrameSink{}
	return context.WithValue(ctx, frameSinkKey{}, s), s
}

// frameSinkFrom extracts the sink, if any.
func frameSinkFrom(ctx context.Context) *FrameSink {
	s, _ := ctx.Value(frameSinkKey{}).(*FrameSink)
	return s
}
