package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// FuzzTraceRoundTrip drives the codec from both ends. Structured inputs
// (a seed expanded into a random schedule by the same generator the unit
// tests use) must round-trip Encode -> Decode graph-exactly and re-encode
// byte-identically; arbitrary bytes that happen to Decode must re-encode
// to something that decodes back to the same schedule (the codec never
// "repairs" a trace into a different one).
func FuzzTraceRoundTrip(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		n, prefix, loop := randomSchedule(seed)
		f.Add(Encode(n, prefix, loop))
	}
	// Multi-word seeds: RSC2 canonical round-trips at and past every
	// word boundary the codec can cross.
	for _, n := range []int{65, 127, 128, 256} {
		rng := rand.New(rand.NewSource(int64(n)))
		distinct := []graph.Graph{
			graph.Random(rng, n, 0.3),
			graph.Random(rng, n, 0.7),
		}
		prefix := []graph.Graph{distinct[0], distinct[1], distinct[0]}
		loop := []graph.Graph{distinct[1]}
		f.Add(Encode(n, prefix, loop))
	}
	// Version-boundary bytes: an RSC1 header declaring n > 64 and an
	// RSC2 header declaring n <= 64 must both be rejected, never
	// reinterpreted (the fuzz body then just returns — the seed's value
	// is forcing the mutator through the version check).
	f.Add(binary.AppendUvarint([]byte(magic), 65))
	f.Add(binary.AppendUvarint([]byte(magicV2), 4))
	f.Add([]byte(magic))
	f.Add([]byte(magicV2))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		n, prefix, loop, err := Decode(data)
		if err != nil {
			return
		}
		enc := Encode(n, prefix, loop)
		n2, p2, l2, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-encode of a decoded trace does not decode: %v", err)
		}
		if n2 != n || len(p2) != len(prefix) || len(l2) != len(loop) {
			t.Fatalf("round trip changed the shape: n %d->%d, prefix %d->%d, loop %d->%d",
				n, n2, len(prefix), len(p2), len(loop), len(l2))
		}
		for i := range prefix {
			if !p2[i].Equal(prefix[i]) {
				t.Fatalf("round trip changed prefix round %d", i+1)
			}
		}
		for i := range loop {
			if !l2[i].Equal(loop[i]) {
				t.Fatalf("round trip changed loop round %d", i+1)
			}
		}
		// Canonical encodings are a fixed point: encoding the decode of
		// enc must reproduce enc.
		if !bytes.Equal(Encode(n2, p2, l2), enc) {
			t.Fatal("canonical encoding is not a fixed point")
		}
		if Fingerprint(n, prefix, loop) != Fingerprint(n2, p2, l2) {
			t.Fatal("fingerprint changed across the round trip")
		}
		// Fingerprint hashes the encoding as it streams; it must equal
		// the digest of the whole encoding.
		if sum := sha256.Sum256(enc); Fingerprint(n, prefix, loop) != hex.EncodeToString(sum[:]) {
			t.Fatal("fingerprint is not the SHA-256 of the encoding")
		}
	})
}
