package client

// Client half of the multi-tenant front door (see internal/frontdoor and
// the provider's throttle.go for the server half):
//
//   - Read coalescing: concurrent reads of the same owner group collapse
//     into one provider round trip (readGroup → flights). The provider
//     runs its own collapser for duplicates across distinct clients; this
//     one stops duplicates before they reach the wire at all.
//   - Read-through segment cache: every raw segment a group read returns
//     lands in the client-wide resolved-segment cache, so repeat loads of
//     hot lineage prefixes skip the provider entirely. Safe because stored
//     segments are immutable and model IDs are never reused.
//   - Frame leases: reads issued on behalf of a Lease receive their bulk
//     payload in pooled receive frames (rpc.Frame). The lease and the
//     cache each hold counted references; the buffer returns to the pool
//     when the last reference drops. Callers that never Release merely
//     leave frames to the garbage collector — an unreleased lease can
//     waste a buffer, never corrupt one.
//   - Self-throttling: WithSelfThrottle paces this client's reads against
//     local token buckets before they reach the wire, so a cooperative
//     tenant converges on its budget without bouncing off the provider's
//     admission control.

import (
	"context"
	"encoding/binary"
	"sort"
	"sync"

	"repro/internal/frontdoor"
	"repro/internal/graph"
	"repro/internal/ownermap"
	"repro/internal/proto"
	"repro/internal/rpc"
)

// WithSegCacheBytes bounds the client-wide resolved-segment cache (default
// 64 MiB). Zero disables caching entirely; entries larger than the bound
// are never admitted.
func WithSegCacheBytes(n int64) Option {
	return func(c *Client) {
		if n < 0 {
			n = 0
		}
		c.segCacheMax = n
	}
}

// WithTenant stamps every segment read with a tenant ID, which the
// provider's front door charges against that tenant's token buckets.
// Untagged clients share the anonymous tenant's budget.
func WithTenant(t string) Option {
	return func(c *Client) { c.tenant = t }
}

// WithSelfThrottle paces this client's segment reads against local token
// buckets (ops and bytes per second) before they reach the wire. Unlike the
// provider's admission control, which refuses with a retry-after, the
// client-side waiter sleeps until its own budget admits the read — so a
// cooperative tenant smooths its load instead of burning round trips on
// refusals. Zero limits disable self-throttling.
func WithSelfThrottle(l frontdoor.Limits) Option {
	return func(c *Client) { c.selfWaiter = frontdoor.NewWaiter(l) }
}

// Lease tracks the pooled receive frames backing one logical read. Release
// returns every frame reference the lease holds; after that the segments
// obtained under the lease must not be touched. A Lease that is never
// released keeps its buffers from the pool but stays memory-safe (the GC
// reclaims them with the frames). The zero value is ready to use; a nil
// *Lease is a valid "don't pool" signal accepted everywhere.
type Lease struct {
	mu     sync.Mutex
	frames []*rpc.Frame
}

// add transfers one reference on f to the lease. nil lease or nil frame is
// a no-op — for a nil lease the caller deliberately leaks the reference,
// keeping the frame alive (and unpooled) for as long as the GC sees it.
func (l *Lease) add(f *rpc.Frame) {
	if l == nil || f == nil {
		return
	}
	l.mu.Lock()
	l.frames = append(l.frames, f)
	l.mu.Unlock()
}

// Release drops every frame reference the lease holds. Idempotent.
func (l *Lease) Release() {
	if l == nil {
		return
	}
	l.mu.Lock()
	frames := l.frames
	l.frames = nil
	l.mu.Unlock()
	for _, f := range frames {
		f.Release()
	}
}

// groupRead is one owner-group fetch shared across a coalesced flight.
type groupRead struct {
	table []proto.SegmentRef
	parts [][]byte
	frame *rpc.Frame // backing frame of parts (nil: plain allocations)
}

// flightKey canonicalizes an owner-group read for coalescing: owner plus
// the sorted vertex set, so two callers asking for the same segments in
// different orders still share one flight (parts are matched back through
// the shared table, never by request order).
func flightKey(owner ownermap.ModelID, vs []graph.VertexID) string {
	sorted := vs
	for i := 1; i < len(vs); i++ {
		if vs[i-1] > vs[i] {
			// Rare: owner-map grouping emits vertices in ascending order, so
			// the copy+sort only happens for hand-built vertex lists.
			sorted = append([]graph.VertexID(nil), vs...)
			sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
			break
		}
	}
	b := make([]byte, 0, 8+4*len(sorted))
	b = binary.LittleEndian.AppendUint64(b, uint64(owner))
	for _, v := range sorted {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	return string(b)
}

// readGroup fetches one owner group's segments through the front door:
// self-throttle pacing, then flight coalescing, then one wire read
// (readGroupWire). Each returner owns one
// reference on the backing frame — transferred to lease, or deliberately
// leaked when lease is nil, since a legacy caller may hold the parts
// indefinitely and an unpooled frame is safe where a recycled-under-use
// one is not. Raw (non-enveloped) segments are cached read-through.
func (c *Client) readGroup(ctx context.Context, owner ownermap.ModelID, vs []graph.VertexID, lease *Lease) ([]proto.SegmentRef, [][]byte, error) {
	if waits, err := c.selfWaiter.Wait(ctx); err != nil {
		return nil, nil, err
	} else if waits > 0 {
		c.throttled.Add(uint64(waits))
	}
	framed := lease != nil
	g, shared, err := c.flights.Do(flightKey(owner, vs), func() (groupRead, error) {
		table, parts, frame, err := c.readGroupWire(ctx, owner, vs, framed)
		if err != nil {
			return groupRead{}, err
		}
		var total int
		for _, p := range parts {
			total += len(p)
		}
		c.selfWaiter.ChargeBytes(total)
		return groupRead{table: table, parts: parts, frame: frame}, nil
	})
	if err != nil {
		// A provider refusal that made it past resilient's paced retries:
		// count it so tenants can see they are over budget.
		if _, ok := frontdoor.RetryAfterFromError(err); ok {
			c.throttled.Inc()
		}
		return nil, nil, err
	}
	if shared {
		c.coalesced.Inc()
	}
	lease.add(g.frame)
	if !shared {
		// Read-through cache fill, leader only (waiters would only re-take
		// the same locks to find every entry present). Enveloped segments
		// are skipped: the cache holds logical bytes, and the resolver
		// caches their decoded form itself.
		for i, ref := range g.table {
			if !proto.IsSegEnvelope(g.parts[i]) {
				c.resolved.put(segRef{owner, ref.Vertex}, g.parts[i], 0, g.frame)
			}
		}
	}
	return g.table, g.parts, nil
}

// readGroupWire fetches one owner group's segments off the wire in one
// single-response read — the segment table plus the consolidated bulk
// payload the paper reads per owner. The returned parts alias the response
// buffers. With framed
// set the response bulk arrives as a pooled receive frame; the caller owns
// one reference on it and every returned part aliases it.
func (c *Client) readGroupWire(ctx context.Context, owner ownermap.ModelID, vs []graph.VertexID, framed bool) ([]proto.SegmentRef, [][]byte, *rpc.Frame, error) {
	req := &proto.ReadSegmentsReq{Owner: owner, Vertices: vs, Tenant: c.tenant}
	var sink *rpc.FrameSink
	if framed {
		ctx, sink = rpc.WithFrameSink(ctx)
	}
	resp, err := c.readCall(ctx, proto.RPCReadSegments, owner, rpc.Message{Meta: req.Encode()})
	if err != nil {
		dropFrame(sink)
		return nil, nil, nil, err
	}
	table, err := proto.DecodeSegTable(resp.Meta)
	if err != nil {
		dropFrame(sink)
		return nil, nil, nil, err
	}
	parts, err := proto.SplitBulkMsg(table, resp)
	if err != nil {
		dropFrame(sink)
		return nil, nil, nil, err
	}
	var frame *rpc.Frame
	if sink != nil {
		frame = sink.Take()
	}
	return table, parts, frame, nil
}

// dropFrame releases whatever frame a failed call may have deposited
// before the error (e.g. a response that arrived but failed validation).
func dropFrame(sink *rpc.FrameSink) {
	if sink == nil {
		return
	}
	if f := sink.Take(); f != nil {
		f.Release()
	}
}
