package dedup

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/kvstore"
)

func wrapped(t *testing.T, o Options) (*KV, kvstore.KV) {
	t.Helper()
	inner := kvstore.NewMemKV(4)
	d := Wrap(inner, o)
	t.Cleanup(func() { d.Close() })
	return d, inner
}

func mustPut(t *testing.T, d *KV, key string, v []byte) {
	t.Helper()
	if err := d.Put(key, v); err != nil {
		t.Fatalf("put %q: %v", key, err)
	}
}

func mustGet(t *testing.T, d *KV, key string) []byte {
	t.Helper()
	v, ok, err := d.Get(key)
	if err != nil || !ok {
		t.Fatalf("get %q: ok=%v err=%v", key, ok, err)
	}
	return v
}

func TestKVChunkSharing(t *testing.T) {
	d, inner := wrapped(t, Options{ChunkSize: 8})
	v := []byte("abcdefghABCDEFGH01234567") // 3 chunks
	mustPut(t, d, "seg/1", v)
	mustPut(t, d, "seg/2", v)
	if got := mustGet(t, d, "seg/2"); !bytes.Equal(got, v) {
		t.Fatalf("read back %q", got)
	}
	st := d.Stats()
	if st.Chunks != 3 {
		t.Fatalf("chunks = %d, want 3 shared", st.Chunks)
	}
	if st.DedupHits != 3 {
		t.Fatalf("dedup hits = %d, want 3 (second value fully shared)", st.DedupHits)
	}
	// Logical view: 2 entries; physically: 2 recipes + 3 chunks.
	if d.Len() != 2 || inner.Len() != 5 {
		t.Fatalf("Len = %d (inner %d), want 2 (5)", d.Len(), inner.Len())
	}
	// Overlapping value shares its common prefix chunks only.
	v3 := append(append([]byte(nil), v[:16]...), []byte("xxxxxxxx")...)
	mustPut(t, d, "seg/3", v3)
	if st := d.Stats(); st.Chunks != 4 || st.DedupHits != 5 {
		t.Fatalf("after overlap: %+v, want 4 chunks / 5 hits", st)
	}
	if got := mustGet(t, d, "seg/3"); !bytes.Equal(got, v3) {
		t.Fatalf("read back %q", got)
	}
}

func TestKVDeleteKeepsSharedChunks(t *testing.T) {
	d, _ := wrapped(t, Options{ChunkSize: 8})
	v := []byte("abcdefghABCDEFGH")
	mustPut(t, d, "seg/1", v)
	mustPut(t, d, "seg/2", v)
	if err := d.Delete("seg/1"); err != nil {
		t.Fatal(err)
	}
	// The survivor still resolves: its chunks were shared, not owned.
	if got := mustGet(t, d, "seg/2"); !bytes.Equal(got, v) {
		t.Fatalf("read back %q after sibling delete", got)
	}
	if st := d.Stats(); st.Chunks != 2 {
		t.Fatalf("chunks = %d after one delete, want 2", st.Chunks)
	}
	if err := d.Delete("seg/2"); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.Chunks != 0 {
		t.Fatalf("chunks = %d after both deletes, want 0", st.Chunks)
	}
	if d.Len() != 0 || d.SizeBytes() != 0 {
		t.Fatalf("store not empty: len=%d size=%d", d.Len(), d.SizeBytes())
	}
}

func TestKVOverwriteReleasesOldChunks(t *testing.T) {
	d, _ := wrapped(t, Options{ChunkSize: 8})
	mustPut(t, d, "seg/1", []byte("abcdefghABCDEFGH"))
	mustPut(t, d, "seg/1", []byte("zzzzzzzzyyyyyyyy"))
	if st := d.Stats(); st.Chunks != 2 {
		t.Fatalf("chunks = %d after overwrite, want only the new 2", st.Chunks)
	}
	if got := mustGet(t, d, "seg/1"); !bytes.Equal(got, []byte("zzzzzzzzyyyyyyyy")) {
		t.Fatalf("read back %q", got)
	}
}

func TestKVSmallValuePassThrough(t *testing.T) {
	d, inner := wrapped(t, Options{ChunkSize: 64})
	small := []byte("short")
	mustPut(t, d, "seg/1", small)
	// Stored verbatim in the inner store: no recipe, no chunks.
	raw, ok, err := inner.Get("seg/1")
	if err != nil || !ok || !bytes.Equal(raw, small) {
		t.Fatalf("inner holds %q, %v", raw, err)
	}
	if st := d.Stats(); st.Chunks != 0 {
		t.Fatalf("chunks = %d for sub-chunk value", st.Chunks)
	}
}

func TestKVRejectsReservedKeys(t *testing.T) {
	d, _ := wrapped(t, Options{})
	if err := d.Put("cas/0123", []byte("x")); err == nil {
		t.Fatal("put into the reserved chunk namespace accepted")
	}
}

func TestKVScanHidesChunks(t *testing.T) {
	d, _ := wrapped(t, Options{ChunkSize: 8})
	big := bytes.Repeat([]byte("chunked!"), 4)
	mustPut(t, d, "seg/big", big)
	mustPut(t, d, "seg/small", []byte("tiny"))
	seen := map[string][]byte{}
	if err := d.Scan("", func(k string, v []byte) bool {
		seen[k] = append([]byte(nil), v...)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 2 {
		t.Fatalf("scan saw %d keys %v, want the 2 logical ones", len(seen), seen)
	}
	// Scan yields logical bytes, not the recipe.
	if !bytes.Equal(seen["seg/big"], big) {
		t.Fatalf("scan resolved %d bytes, want %d", len(seen["seg/big"]), len(big))
	}
}

func TestKVColdSweepRoundTrip(t *testing.T) {
	d, inner := wrapped(t, Options{ChunkSize: 1 << 20, ColdCompress: true})
	// A compressible pass-through value (below the chunk size, above the
	// 64-byte sweep floor).
	v := bytes.Repeat([]byte("model weights "), 64)
	mustPut(t, d, "seg/1", v)
	time.Sleep(2 * time.Millisecond) // let the access stamp age past the cutoff
	n, err := d.SweepCold(time.Millisecond)
	if err != nil || n != 1 {
		t.Fatalf("sweep = %d, %v, want 1 entry compressed", n, err)
	}
	raw, _, err := inner.Get("seg/1")
	if err != nil || len(raw) >= len(v) {
		t.Fatalf("inner entry is %d bytes after sweep, want compressed < %d (%v)", len(raw), len(v), err)
	}
	// Reads transparently inflate.
	if got := mustGet(t, d, "seg/1"); !bytes.Equal(got, v) {
		t.Fatalf("read back %d bytes after sweep, want %d", len(got), len(v))
	}
	if st := d.Stats(); st.Compressed != 1 {
		t.Fatalf("compressed = %d, want 1", st.Compressed)
	}
	// A second sweep is a no-op: already compressed.
	if n, err := d.SweepCold(time.Millisecond); err != nil || n != 0 {
		t.Fatalf("re-sweep = %d, %v", n, err)
	}
}

func TestKVColdSweepCompressesChunks(t *testing.T) {
	d, _ := wrapped(t, Options{ChunkSize: 64, ColdCompress: true})
	// 4 distinct chunks of 64 compressible bytes each.
	var v []byte
	for c := byte('a'); c < 'e'; c++ {
		v = append(v, bytes.Repeat([]byte{c}, 64)...)
	}
	mustPut(t, d, "seg/1", v)
	time.Sleep(2 * time.Millisecond)
	n, err := d.SweepCold(time.Millisecond)
	if err != nil || n == 0 {
		t.Fatalf("sweep = %d, %v, want chunks compressed", n, err)
	}
	// Reassembly inflates each cold chunk.
	if got := mustGet(t, d, "seg/1"); !bytes.Equal(got, v) {
		t.Fatalf("read back %d bytes, want %d", len(got), len(v))
	}
	// Storing the same value again must still share: the chunk comparison
	// reads logical chunk bytes, not the compressed blob.
	mustPut(t, d, "seg/2", v)
	if st := d.Stats(); st.Chunks != 4 {
		t.Fatalf("chunks = %d after re-store over cold chunks, want 4", st.Chunks)
	}
	if got := mustGet(t, d, "seg/2"); !bytes.Equal(got, v) {
		t.Fatalf("read back %d bytes, want %d", len(got), len(v))
	}
}

func TestKVSweepDisabledWithoutOption(t *testing.T) {
	d, _ := wrapped(t, Options{ChunkSize: 1 << 20})
	mustPut(t, d, "seg/1", bytes.Repeat([]byte("model weights "), 64))
	if n, err := d.SweepCold(0); err != nil || n != 0 {
		t.Fatalf("sweep without ColdCompress = %d, %v, want no-op", n, err)
	}
}

// TestKVConcurrentMutationsKeepRefcounts runs concurrent Put, Delete and
// Get on overlapping keys whose values share chunks (run it with -race).
// Every successful read must return a whole value that was written under
// its key, and afterwards a fresh wrapper's Recover must rebuild exactly
// the live chunk refcounts, with no orphan chunk left behind.
func TestKVConcurrentMutationsKeepRefcounts(t *testing.T) {
	const chunk = 64
	d, inner := wrapped(t, Options{ChunkSize: chunk})
	patterns := make([][]byte, 5)
	for i := range patterns {
		patterns[i] = bytes.Repeat([]byte{byte('a' + i)}, chunk)
	}
	// value(k, j) concatenates 3–5 patterns, so values of different keys
	// and different versions of one key share chunks.
	value := func(k, j int) []byte {
		var v []byte
		for c := 0; c < 3+(k+j)%3; c++ {
			v = append(v, patterns[(k*3+j+c*c)%len(patterns)]...)
		}
		return v
	}
	const keys, versions = 4, 6
	valid := func(k int, v []byte) bool {
		for j := 0; j < versions; j++ {
			if bytes.Equal(v, value(k, j)) {
				return true
			}
		}
		return false
	}

	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				k := (w + i) % keys
				key := fmt.Sprintf("k%d", k)
				switch (w*7 + i) % 5 {
				case 0, 1:
					if err := d.Put(key, value(k, (w+i)%versions)); err != nil {
						errc <- err
						return
					}
				case 2:
					if err := d.Delete(key); err != nil {
						errc <- err
						return
					}
				default:
					// A read racing a delete of the same key can find a
					// chunk already freed; anything it does return must be
					// a whole value of that key.
					v, ok, err := d.Get(key)
					if err != nil && !strings.Contains(err.Error(), "missing") {
						errc <- err
						return
					}
					if err == nil && ok && !valid(k, v) {
						errc <- fmt.Errorf("get %s returned a value never written under it", key)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	for k := 0; k < keys; k++ {
		if v, ok, err := d.Get(fmt.Sprintf("k%d", k)); err != nil || (ok && !valid(k, v)) {
			t.Errorf("k%d after the run: ok=%v err=%v", k, ok, err)
		}
	}
	stored := 0
	inner.Scan(casPrefix, func(string, []byte) bool { stored++; return true })
	if stored != d.Stats().Chunks {
		t.Errorf("%d chunks stored, refcounts track %d", stored, d.Stats().Chunks)
	}
	r := Wrap(inner, Options{ChunkSize: chunk})
	if err := r.Recover(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.refs, d.refs) || r.chunks != d.chunks {
		t.Errorf("Recover rebuilt %d chunks %v, live wrapper has %d chunks %v", r.chunks, r.refs, d.chunks, d.refs)
	}
}
