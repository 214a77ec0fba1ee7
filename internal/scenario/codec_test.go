package scenario

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// randomSchedule derives a schedule shape deterministically from a seed:
// random n, random prefix/loop lengths, and random graphs with repetition
// (so the dedup table is exercised).
func randomSchedule(seed int64) (n int, prefix, loop []graph.Graph) {
	rng := rand.New(rand.NewSource(seed))
	n = 1 + rng.Intn(8)
	distinct := make([]graph.Graph, 1+rng.Intn(5))
	for i := range distinct {
		distinct[i] = graph.Random(rng, n, rng.Float64())
	}
	pick := func(count int) []graph.Graph {
		out := make([]graph.Graph, count)
		for i := range out {
			out[i] = distinct[rng.Intn(len(distinct))]
		}
		return out
	}
	return n, pick(rng.Intn(20)), pick(rng.Intn(10))
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		n, prefix, loop := randomSchedule(seed)
		enc := Encode(n, prefix, loop)
		dn, dp, dl, err := Decode(enc)
		if err != nil {
			t.Fatalf("seed %d: decode failed: %v", seed, err)
		}
		if dn != n || len(dp) != len(prefix) || len(dl) != len(loop) {
			t.Fatalf("seed %d: shape mismatch: got n=%d |p|=%d |l|=%d", seed, dn, len(dp), len(dl))
		}
		for i := range prefix {
			if !dp[i].Equal(prefix[i]) {
				t.Fatalf("seed %d: prefix round %d differs", seed, i+1)
			}
		}
		for i := range loop {
			if !dl[i].Equal(loop[i]) {
				t.Fatalf("seed %d: loop round %d differs", seed, i+1)
			}
		}
		// Canonical: re-encoding the decode reproduces the bytes.
		if !bytes.Equal(Encode(dn, dp, dl), enc) {
			t.Fatalf("seed %d: re-encode is not byte-identical", seed)
		}
	}
}

func TestFingerprintIdentity(t *testing.T) {
	n, prefix, loop := randomSchedule(7)
	a := Fingerprint(n, prefix, loop)
	b := Fingerprint(n, prefix, loop)
	if a != b {
		t.Fatalf("fingerprint not deterministic: %s vs %s", a, b)
	}
	if len(a) != 64 {
		t.Fatalf("fingerprint length %d, want 64 hex chars", len(a))
	}
	// Any change to the schedule changes the fingerprint.
	if len(prefix) > 0 {
		if c := Fingerprint(n, prefix[:len(prefix)-1], loop); c == a {
			t.Fatal("dropping a round did not change the fingerprint")
		}
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	n, prefix, loop := randomSchedule(3)
	enc := Encode(n, prefix, loop)
	cases := map[string][]byte{
		"empty":         {},
		"bad magic":     append([]byte("XXXX"), enc[4:]...),
		"truncated":     enc[:len(enc)-1],
		"trailing junk": append(append([]byte{}, enc...), 0),
	}
	for name, data := range cases {
		if _, _, _, err := Decode(data); err == nil {
			t.Errorf("%s: decode accepted corrupt input", name)
		}
	}
}

func TestDecodeRejectsOversizedHeader(t *testing.T) {
	// Header declaring MaxRounds+1 prefix rounds must be rejected before
	// any allocation of that size.
	buf := []byte(magic)
	buf = appendUvarint(buf, 2)           // n
	buf = appendUvarint(buf, MaxRounds+1) // prefixLen
	buf = appendUvarint(buf, 0)           // loopLen
	buf = appendUvarint(buf, 0)           // tableLen
	if _, _, _, err := Decode(buf); err == nil {
		t.Fatal("oversized header accepted")
	}
}

func TestDecodeRejectsMissingSelfLoop(t *testing.T) {
	buf := []byte(magic)
	buf = appendUvarint(buf, 2) // n
	buf = appendUvarint(buf, 1) // prefixLen
	buf = appendUvarint(buf, 0) // loopLen
	buf = appendUvarint(buf, 1) // tableLen
	buf = appendUvarint(buf, 0) // node 0 mask: no self-loop
	buf = appendUvarint(buf, 2) // node 1 mask
	buf = appendUvarint(buf, 0) // prefix round 0
	if _, _, _, err := Decode(buf); err == nil {
		t.Fatal("graph without self-loop accepted")
	}
}

// appendUvarint mirrors binary.AppendUvarint without the import noise.
func appendUvarint(buf []byte, v uint64) []byte {
	for v >= 0x80 {
		buf = append(buf, byte(v)|0x80)
		v >>= 7
	}
	return append(buf, byte(v))
}
