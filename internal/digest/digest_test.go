package digest

import "testing"

// Golden vectors from the XXH64 reference implementation. They pin the
// output across processes, platforms and releases of this package.
func TestSum64Golden(t *testing.T) {
	cases := []struct {
		in   string
		seed uint64
		want uint64
	}{
		{"", 0, 0xEF46DB3751D8E999},
		{"a", 0, 0xD24EC4F1A98C6E5B},
		{"abc", 0, 0x44BC2CF5AD770999},
		{"Nobody inspects the spammish repetition", 0, 0xFBCEA83C8A378BF1},
		{"xxhash", 20141025, 0xB559B98D844E0635},
	}
	for _, c := range cases {
		if got := Sum64([]byte(c.in), c.seed); got != c.want {
			t.Errorf("Sum64(%q, %d) = %#016x, want %#016x", c.in, c.seed, got, c.want)
		}
	}
	if got := Sum64(nil, 0); got != 0xEF46DB3751D8E999 {
		t.Errorf("Sum64(nil, 0) = %#016x", got)
	}
}

// Every single-bit flip, at every length from 0 to 257, changes the
// digest. The lengths cover each tail path (8-, 4- and 1-byte steps) with
// and without full 32-byte stripes in front of it.
func TestSum64BitFlipSensitivity(t *testing.T) {
	buf := make([]byte, 257)
	for i := range buf {
		buf[i] = byte(i*131 + 7)
	}
	for n := 0; n <= len(buf); n++ {
		b := buf[:n]
		base := Sum64(b, 0)
		if Sum64(b, 1) == base {
			t.Errorf("len %d: digest ignores the seed", n)
		}
		if n > 0 && Sum64(buf[:n-1], 0) == base {
			t.Errorf("len %d: digest ignores the length", n)
		}
		for bit := 0; bit < 8*n; bit++ {
			b[bit/8] ^= 1 << (bit % 8)
			got := Sum64(b, 0)
			b[bit/8] ^= 1 << (bit % 8)
			if got == base {
				t.Fatalf("len %d: flipping bit %d left the digest at %#016x", n, bit, base)
			}
		}
	}
}

func TestSum64NoAllocs(t *testing.T) {
	b := make([]byte, 4099)
	if n := testing.AllocsPerRun(100, func() { Sum64(b, 42) }); n != 0 {
		t.Errorf("Sum64 allocates %v times per call", n)
	}
}
