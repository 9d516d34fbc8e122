package provider

import (
	"sync"
	"time"
)

// replyCacheCap bounds the retry-reply cache. 64K completed requests of
// history is far beyond any retry window the client middleware produces.
const replyCacheCap = 1 << 16

// DefaultDedupTTL is the default lifetime of a retry-reply cache entry.
// It is sized to the client's retry budget: the resilient middleware's
// defaults allow 3 attempts of up to 10s each plus backoff, so a retry of
// a completed request can trail the original by well under a minute.
// 2 minutes keeps a comfortable margin (slow fabrics, fault-injected
// delays) while guaranteeing entries do not pin response bytes forever
// on providers that never reach the FIFO cap.
const DefaultDedupTTL = 2 * time.Minute

// replyCache is the retry-reply cache: it records the encoded responses
// of completed non-idempotent requests (StoreModel, IncRef, DecRef,
// Retire) by client request ID. A retried request whose first execution
// succeeded — but whose response was lost in the fabric — is answered
// from this cache instead of being re-executed, which is what makes
// refcount mutations safe to retry: a DecRef can never double-decrement.
//
// Entries are evicted two ways: FIFO once cap is exceeded, and by age
// once they outlive ttl. The TTL is tied to the client retry budget —
// after it, no legitimate retry of the request can still arrive, so the
// entry is dead weight (the FIFO cap alone only bounds count, not
// lifetime: a quiet provider would otherwise hold stale responses
// indefinitely). Expiry is lazy — performed on get/put under the same
// lock — so there is no background goroutine to manage. Only successful
// executions are recorded: a failed request left no side effects behind
// (handlers validate all-or-nothing before mutating), so re-executing a
// retry is both safe and gives the caller the authoritative error.
//
// The client retry loop is sequential per logical request, so a given ID
// is never concurrently in flight; the cache therefore only needs to make
// completed-then-retried requests idempotent, not to lock in-flight ones.
type replyCache struct {
	mu    sync.Mutex
	resp  map[uint64][]byte
	order []uint64 // insertion order; parallel to stamps
	stamp []time.Time
	dead  int // front entries trimmed off order/stamp since the last compaction
	cap   int
	ttl   time.Duration    // 0 = no age-based expiry
	now   func() time.Time // injectable clock for tests
}

func newReplyCache(cap int) *replyCache {
	return &replyCache{
		resp: make(map[uint64][]byte),
		cap:  cap,
		ttl:  DefaultDedupTTL,
		now:  time.Now,
	}
}

// setTTL changes the age-based expiry window; 0 disables it (FIFO cap
// only, the pre-TTL behaviour).
func (d *replyCache) setTTL(ttl time.Duration) {
	d.mu.Lock()
	d.ttl = ttl
	d.mu.Unlock()
}

// expireLocked drops entries older than ttl. Insertion order is also
// age order (stamps only come from d.now at put time), so expiry pops
// from the front exactly like a FIFO eviction. Callers hold d.mu.
func (d *replyCache) expireLocked() {
	if d.ttl <= 0 {
		return
	}
	cutoff := d.now().Add(-d.ttl)
	for len(d.order) > 0 && d.stamp[0].Before(cutoff) {
		d.popFrontLocked()
	}
	d.compactLocked()
}

// popFrontLocked evicts the oldest entry. Re-slicing leaves the evicted
// head alive in the backing arrays; compactLocked reclaims it.
func (d *replyCache) popFrontLocked() {
	delete(d.resp, d.order[0])
	d.order = d.order[1:]
	d.stamp = d.stamp[1:]
	d.dead++
}

// compactLocked copies order/stamp into right-sized backing arrays once
// the trimmed-off head exceeds half the table's capacity, releasing the
// dead prefix (and the response bytes its map entries pinned) that
// front re-slicing would otherwise retain indefinitely on a provider
// that has gone quiet.
func (d *replyCache) compactLocked() {
	if d.dead <= d.cap/2 {
		return
	}
	d.order = append(make([]uint64, 0, len(d.order)), d.order...)
	d.stamp = append(make([]time.Time, 0, len(d.stamp)), d.stamp...)
	d.dead = 0
}

// get returns the recorded response for id, if any. id 0 (no dedup) never
// hits.
func (d *replyCache) get(id uint64) ([]byte, bool) {
	if id == 0 {
		return nil, false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.expireLocked()
	meta, ok := d.resp[id]
	return meta, ok
}

// put records the response of a successfully executed request.
func (d *replyCache) put(id uint64, meta []byte) {
	if id == 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.expireLocked()
	if _, dup := d.resp[id]; dup {
		return
	}
	d.resp[id] = meta
	d.order = append(d.order, id)
	d.stamp = append(d.stamp, d.now())
	for len(d.order) > d.cap {
		d.popFrontLocked()
	}
	d.compactLocked()
}

// len reports the number of live (unexpired) responses (for tests).
func (d *replyCache) len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.expireLocked()
	return len(d.resp)
}
