package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
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

// TestFingerprintIsDigestOfEncoding pins the streamed Fingerprint to the
// SHA-256 of Encode's bytes on encodings that fit one chunk, straddle a
// chunk boundary, end exactly on one, or span many chunks, in both
// format versions.
func TestFingerprintIsDigestOfEncoding(t *testing.T) {
	// check also decodes the encoding: Encode and Fingerprint share one
	// chunked body, so only a round trip shows bytes lost or garbled at
	// a chunk boundary.
	check := func(what string, n int, prefix, loop []graph.Graph) string {
		t.Helper()
		enc := Encode(n, prefix, loop)
		dn, dp, dl, err := Decode(enc)
		if err != nil || dn != n || !sameGraphs(dp, prefix) || !sameGraphs(dl, loop) {
			t.Errorf("%s, n=%d, %d bytes: the encoding does not decode to the schedule (err %v)", what, n, len(enc), err)
		}
		sum := sha256.Sum256(enc)
		fp := Fingerprint(n, prefix, loop)
		if want := hex.EncodeToString(sum[:]); fp != want {
			t.Errorf("%s, n=%d, %d bytes: Fingerprint = %s, want sha256(Encode) = %s", what, n, len(enc), fp, want)
		}
		return fp
	}
	for _, n := range []int{1, 2, 64, 65, 256} {
		rng := rand.New(rand.NewSource(int64(n)))
		g := graph.Random(rng, n, 0.5)
		check("few rounds", n, []graph.Graph{g, graph.New(n), g}, []graph.Graph{graph.New(n)})
		// One byte short of, on and past chunk boundaries.
		for _, size := range []int{chunkSize - 1, chunkSize, chunkSize + 1, 2 * chunkSize, 5*chunkSize + 3} {
			prefix, loop := scheduleOfSize(t, n, size)
			check("padded to size", n, prefix, loop)
		}
		distinct := make([]graph.Graph, 40)
		for i := range distinct {
			distinct[i] = graph.Random(rng, n, rng.Float64())
		}
		var prefix []graph.Graph
		for r := 0; r < 20000; r++ {
			prefix = append(prefix, distinct[rng.Intn(len(distinct))])
		}
		check("many chunks", n, prefix, distinct[:7])
	}
	// Churn-like: 25 epochs of four rounds, each a distinct near-full
	// 256-agent graph in which every agent hears the agents that are up.
	const n = 256
	rng := rand.New(rand.NewSource(1))
	var prefix []graph.Graph
	for e := 0; e < 25; e++ {
		up := make([]uint64, graph.WordsFor(n))
		for i := range up {
			up[i] = ^uint64(0)
		}
		for _, i := range rng.Perm(n)[:rng.Intn(65)] {
			up[i/64] &^= 1 << uint(i%64)
		}
		b := graph.NewBuilder(n)
		for j := 0; j < n; j++ {
			b.SetInRow(j, up)
		}
		g := b.Graph()
		prefix = append(prefix, g, g, g, g)
	}
	// Pinned like the RSC1 golden trace: a fingerprint that moves
	// invalidates every stored result of a 256-agent schedule.
	const churnFP = "4167441e2942a6403aa779515f9b83efa09cc010c9cb3181a1eefdee4de1d2c1"
	if fp := check("churn-like", n, prefix, nil); fp != churnFP {
		t.Errorf("churn-like fingerprint %s, want %s", fp, churnFP)
	}
}

// TestEncodeMatchesAppendUvarint holds the encoder's word emitter to
// binary.AppendUvarint byte for byte. Table rows are drawn from the
// words on either side of every varint length boundary and from random
// words, in 128 seeded layouts at each of n = 65, 128 and 256, and every
// boundary word must sit across an 8-KiB chunk boundary in some layout:
// split by it, or, for a one-byte word, as a chunk's last byte.
func TestEncodeMatchesAppendUvarint(t *testing.T) {
	// The extremes, 1<<62, and the largest word of every varint length
	// with the smallest of the next.
	boundary := []uint64{0, 1 << 62, math.MaxUint64}
	for k := 1; k <= 9; k++ {
		boundary = append(boundary, 1<<(7*k)-1, 1<<(7*k))
	}
	across := make(map[uint64]bool, len(boundary))
	for _, v := range boundary {
		across[v] = false
	}
	for _, n := range []int{65, 128, 256} {
		w := graph.WordsFor(n)
		for layout := 0; layout < 128; layout++ {
			rng := rand.New(rand.NewSource(int64(n<<16 + layout)))
			// draw picks word k of row j, redrawing a few times for one
			// that SetInRow keeps verbatim: it sets the row's self-loop
			// bit and clears the bits past n.
			draw := func(j, k int) uint64 {
				var v uint64
				for try := 0; try < 8; try++ {
					if rng.Intn(4) != 0 {
						v = boundary[rng.Intn(len(boundary))]
					} else {
						v = rng.Uint64()
					}
					fits := (k != j/64 || v&(1<<uint(j%64)) != 0) &&
						(k < w-1 || n%64 == 0 || v>>uint(n%64) == 0)
					if fits {
						break
					}
				}
				return v
			}
			// About three chunks of distinct graphs.
			table := make([]graph.Graph, 1+3*chunkSize/(n*w*6))
			row := make([]uint64, w)
			for g := range table {
				b := graph.NewBuilder(n)
				for j := 0; j < n; j++ {
					for k := range row {
						row[k] = draw(j, k)
					}
					b.SetInRow(j, row)
				}
				table[g] = b.Graph()
			}
			// The loop replays a separately built copy of the first
			// graph, which the encoder must find in its table by content.
			first := graph.NewBuilder(n)
			for j := 0; j < n; j++ {
				first.SetInRow(j, table[0].InRow(j))
			}
			prefix, loop := table, []graph.Graph{first.Graph()}
			want, words := appendUvarintEncoding(n, prefix, loop)
			if got := Encode(n, prefix, loop); !bytes.Equal(got, want) {
				t.Fatalf("n=%d, layout %d: Encode differs from the binary.AppendUvarint encoding (%d vs %d bytes)", n, layout, len(got), len(want))
			}
			sum := sha256.Sum256(want)
			if fp := Fingerprint(n, prefix, loop); fp != hex.EncodeToString(sum[:]) {
				t.Fatalf("n=%d, layout %d: Fingerprint %s is not sha256(Encode)", n, layout, fp)
			}
			for _, wd := range words {
				if _, ok := across[wd.v]; ok && (wd.end%chunkSize == 0 || wd.start/chunkSize != (wd.end-1)/chunkSize) {
					across[wd.v] = true
				}
			}
		}
	}
	for _, v := range boundary {
		if !across[v] {
			t.Errorf("word %#x never sat across a chunk boundary", v)
		}
	}
}

// encodedWord is one table word of a reference encoding and the bytes
// [start, end) it occupies.
type encodedWord struct {
	v          uint64
	start, end int
}

// appendUvarintEncoding is the trace layout written one
// binary.AppendUvarint call per integer, with the table deduplicated by
// graph.Equal in first-occurrence order: a reference for Encode. It
// also returns where each table word sits.
func appendUvarintEncoding(n int, prefix, loop []graph.Graph) ([]byte, []encodedWord) {
	var table []graph.Graph
	var rounds []uint64
	for _, g := range append(append([]graph.Graph(nil), prefix...), loop...) {
		i := 0
		for i < len(table) && !table[i].Equal(g) {
			i++
		}
		if i == len(table) {
			table = append(table, g)
		}
		rounds = append(rounds, uint64(i))
	}
	b := []byte(magic)
	if graph.WordsFor(n) > 1 {
		b = []byte(magicV2)
	}
	for _, v := range []uint64{uint64(n), uint64(len(prefix)), uint64(len(loop)), uint64(len(table))} {
		b = binary.AppendUvarint(b, v)
	}
	var words []encodedWord
	for _, g := range table {
		for j := 0; j < n; j++ {
			for _, v := range g.InRow(j) {
				start := len(b)
				b = binary.AppendUvarint(b, v)
				words = append(words, encodedWord{v, start, len(b)})
			}
		}
	}
	for _, r := range rounds {
		b = binary.AppendUvarint(b, r)
	}
	return b, words
}

// sameGraphs reports whether a and b hold equal graphs round by round.
func sameGraphs(a, b []graph.Graph) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}

// scheduleOfSize returns an identity-graph schedule on n agents whose
// encoding is exactly size bytes long. Every prefix round adds its
// one-byte table index, and the prefix length's uvarint adds at most two
// header bytes, so one of three prefix lengths fits.
func scheduleOfSize(t *testing.T, n, size int) (prefix, loop []graph.Graph) {
	t.Helper()
	loop = []graph.Graph{graph.New(n)}
	base := len(Encode(n, nil, loop))
	for p := max(size-base-2, 0); p <= size-base; p++ {
		prefix = make([]graph.Graph, p)
		for i := range prefix {
			prefix[i] = loop[0]
		}
		if len(Encode(n, prefix, loop)) == size {
			return prefix, loop
		}
	}
	t.Fatalf("n=%d: no identity-graph schedule encodes to exactly %d bytes", n, size)
	return nil, nil
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
	buf = binary.AppendUvarint(buf, 2)           // n
	buf = binary.AppendUvarint(buf, MaxRounds+1) // prefixLen
	buf = binary.AppendUvarint(buf, 0)           // loopLen
	buf = binary.AppendUvarint(buf, 0)           // tableLen
	if _, _, _, err := Decode(buf); err == nil {
		t.Fatal("oversized header accepted")
	}
}

func TestDecodeRejectsMissingSelfLoop(t *testing.T) {
	buf := []byte(magic)
	buf = binary.AppendUvarint(buf, 2) // n
	buf = binary.AppendUvarint(buf, 1) // prefixLen
	buf = binary.AppendUvarint(buf, 0) // loopLen
	buf = binary.AppendUvarint(buf, 1) // tableLen
	buf = binary.AppendUvarint(buf, 0) // node 0 mask: no self-loop
	buf = binary.AppendUvarint(buf, 2) // node 1 mask
	buf = binary.AppendUvarint(buf, 0) // prefix round 0
	if _, _, _, err := Decode(buf); err == nil {
		t.Fatal("graph without self-loop accepted")
	}
}
