// Package scenario implements the compact deterministic binary codec for
// dynamic-network schedules: a finite prefix of per-round communication
// graphs followed by a loop that repeats forever (the "lasso" shape
// rho·lambda^omega in which every ultimately periodic schedule can be
// written; a finite schedule is a lasso with an empty loop).
//
// The format is designed for three properties the scenario plane depends
// on:
//
//   - Determinism: Encode is a pure function of (n, prefix, loop) — equal
//     schedules encode to equal bytes, so a schedule's identity is the
//     digest of its encoding (Fingerprint) and caches can key on it.
//   - Compactness: rounds reference a deduplicated graph table in
//     first-occurrence order, so a 10^6-round schedule over a handful of
//     distinct graphs costs one uvarint per round, not one mask row.
//   - Round-trip exactness: Decode(Encode(s)) reproduces the schedule
//     graph-for-graph, and Encode(Decode(b)) == b for every b Encode can
//     emit (asserted by FuzzTraceRoundTrip).
//
// Layout (all integers unsigned varints, per encoding/binary):
//
//	magic "RSC1" (n <= 64) or "RSC2" (n > 64)
//	n                                 agents (1..graph.MaxNodes)
//	prefixLen loopLen                 round counts
//	tableLen                          distinct graphs
//	table[tableLen]                   in-neighbor rows, one per node,
//	                                  each graph.WordsFor(n) word
//	                                  uvarints, lowest word first (one
//	                                  word in RSC1)
//	prefixIdx[prefixLen]              indices into the table
//	loopIdx[loopLen]                  indices into the table
//
// The version split keeps every schedule's canonical encoding unique:
// Encode emits RSC1 for n <= 64 — byte-identical to the pre-multi-word
// codec, so committed fingerprints and golden traces survive — and RSC2
// only for n > 64; Decode enforces the same boundary, rejecting an RSC2
// body that a canonical RSC1 encoding should carry and vice versa.
package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/maphash"
	"io"
	"math/bits"

	"repro/internal/graph"
)

// magic identifies the trace format; the trailing digit is the version.
// Version 1 carries one mask uvarint per node (n <= 64 only); version 2
// carries graph.WordsFor(n) word uvarints per node (n > 64 only).
const (
	magic   = "RSC1"
	magicV2 = "RSC2"
)

// MaxRounds bounds the prefix and loop lengths a trace may declare, so a
// corrupt or hostile header cannot demand an absurd allocation before the
// payload is validated.
const MaxRounds = 1 << 22

// Encode serializes a lasso schedule on n agents. It panics when a graph's
// node count disagrees with n — schedules are validated at construction,
// so a mismatch here is a programmer error.
func Encode(n int, prefix, loop []graph.Graph) []byte {
	var b bytes.Buffer
	encodeTo(&b, n, prefix, loop)
	return b.Bytes()
}

// keySeed seeds the hash that encodeTo's graph table is indexed by.
var keySeed = maphash.MakeSeed()

// chunkSize is the unit in which encodeTo hands the encoding to its
// writer: every Write but the last carries exactly chunkSize bytes.
const chunkSize = 8 << 10

// chunker accumulates encoded bytes and writes them out in chunkSize
// pieces. Its writers (a bytes.Buffer, a hash) cannot fail, so Write
// errors are not checked.
type chunker struct {
	w   io.Writer
	buf []byte // chunkSize + binary.MaxVarintLen64 bytes long
	n   int    // pending bytes in buf, fewer than chunkSize between calls
}

// uvarints appends each word of vs in the encoding of
// binary.AppendUvarint, written by index into the room buf keeps past
// chunkSize, with no loop over a word's bytes: the low 56 bits are
// spread into eight 7-bit groups, one per byte, and stored in one
// 8-byte write that carries the continuation bits; a word of more than
// 56 bits writes its ninth byte, and one with its top bit set, as most
// row words of a near-full graph on 64 or more agents have, its tenth.
// Encoders call it once per mask row.
func (c *chunker) uvarints(vs ...uint64) {
	for _, v := range vs {
		b := c.buf[c.n : c.n+binary.MaxVarintLen64]
		// Move 28-, then 14-, then 7-bit groups into 32-, 16- and
		// 8-bit lanes.
		x := v & (1<<56 - 1)
		x = x&0x0FFFFFFF | (x&0x00FFFFFFF0000000)<<4
		x = x&0x00003FFF00003FFF | (x&0x0FFFC0000FFFC000)<<2
		x = x&0x007F007F007F007F | (x&0x3F803F803F803F80)<<1
		k := binary.MaxVarintLen64
		switch {
		case v >= 1<<63:
			binary.LittleEndian.PutUint64(b, x|0x8080808080808080)
			b[8] = byte(v >> 56) // bit 7 is v's top bit: continued
			b[9] = 1
		case v >= 1<<56:
			binary.LittleEndian.PutUint64(b, x|0x8080808080808080)
			b[8] = byte(v >> 56)
			k = 9
		default: // k bytes, all but the last continued
			k = (bits.Len64(v|1) + 6) / 7
			binary.LittleEndian.PutUint64(b, x|0x8080808080808080&(1<<(8*k-8)-1))
		}
		c.n += k
		if c.n >= chunkSize {
			c.w.Write(c.buf[:chunkSize])
			c.n = copy(c.buf, c.buf[chunkSize:c.n])
		}
	}
}

// encodeTo writes the canonical encoding of the schedule to w; Encode
// and Fingerprint are its two sinks.
func encodeTo(w io.Writer, n int, prefix, loop []graph.Graph) {
	if n < 1 || n > graph.MaxNodes {
		panic(fmt.Sprintf("scenario: invalid agent count %d", n))
	}
	// Deduplicate graphs in first-occurrence order across prefix then
	// loop. Keying cost matters because encoding (and therefore
	// fingerprinting) sits on the session-construction path of scenario
	// sweeps. Schedules hold one Graph value per round and epoch-style
	// generators repeat it for whole stretches, so a constant-time
	// identity check against the previous round (graph.Same) skips the
	// keying entirely on the common consecutive-repeat case. Otherwise
	// the raw little-endian mask rows are hashed with a per-process seed
	// and graph.Equal settles collisions, so no key is stored: a
	// 256-agent graph's rows are 8 KiB.
	table := make([]graph.Graph, 0, 8)
	index := make(map[uint64][]int, 8)
	keyBuf := make([]byte, 0, n*graph.WordsFor(n)*8)
	var prev graph.Graph
	prevIdx := -1
	lookup := func(g graph.Graph) int {
		if g.N() != n {
			panic(fmt.Sprintf("scenario: graph on %d nodes in schedule of %d agents", g.N(), n))
		}
		if prevIdx >= 0 && g.Same(prev) {
			return prevIdx
		}
		keyBuf = g.AppendMaskKey(keyBuf[:0])
		h := maphash.Bytes(keySeed, keyBuf)
		i := -1
		for _, j := range index[h] {
			if table[j].Equal(g) {
				i = j
				break
			}
		}
		if i < 0 {
			i = len(table)
			index[h] = append(index[h], i)
			table = append(table, g)
		}
		prev, prevIdx = g, i
		return i
	}
	prefixIdx := make([]int, len(prefix))
	for i, g := range prefix {
		prefixIdx[i] = lookup(g)
	}
	loopIdx := make([]int, len(loop))
	for i, g := range loop {
		loopIdx[i] = lookup(g)
	}

	c := chunker{w: w, buf: make([]byte, chunkSize+binary.MaxVarintLen64)}
	if graph.WordsFor(n) == 1 {
		c.n = copy(c.buf, magic)
	} else {
		c.n = copy(c.buf, magicV2)
	}
	c.uvarints(uint64(n), uint64(len(prefixIdx)), uint64(len(loopIdx)), uint64(len(table)))
	for _, g := range table {
		for i := 0; i < n; i++ {
			c.uvarints(g.InRow(i)...)
		}
	}
	for _, i := range prefixIdx {
		c.uvarints(uint64(i))
	}
	for _, i := range loopIdx {
		c.uvarints(uint64(i))
	}
	if c.n > 0 {
		c.w.Write(c.buf[:c.n])
	}
}

// decoder walks an encoded trace.
type decoder struct {
	data []byte
	pos  int
}

func (d *decoder) uvarint(what string) (uint64, error) {
	v, k := binary.Uvarint(d.data[d.pos:])
	if k <= 0 {
		return 0, fmt.Errorf("scenario: truncated or malformed %s at byte %d", what, d.pos)
	}
	d.pos += k
	return v, nil
}

// Decode parses an encoded trace back into (n, prefix, loop). Every mask
// row is validated through graph.FromInWords (self-loops mandatory, no
// bits beyond n), and trailing bytes after the payload are rejected. The
// agent count must match the version's range —
// RSC1 carries n <= 64, RSC2 n > 64 — so every decodable trace is the
// canonical encoding of its schedule and Encode(Decode(b)) == b.
func Decode(data []byte) (n int, prefix, loop []graph.Graph, err error) {
	v2 := false
	switch {
	case len(data) >= len(magic) && string(data[:len(magic)]) == magic:
	case len(data) >= len(magicV2) && string(data[:len(magicV2)]) == magicV2:
		v2 = true
	default:
		return 0, nil, nil, fmt.Errorf("scenario: bad magic (want %q or %q)", magic, magicV2)
	}
	d := &decoder{data: data, pos: len(magic)}
	nv, err := d.uvarint("agent count")
	if err != nil {
		return 0, nil, nil, err
	}
	if nv < 1 || nv > graph.MaxNodes {
		return 0, nil, nil, fmt.Errorf("scenario: invalid agent count %d (want 1..%d)", nv, graph.MaxNodes)
	}
	if !v2 && nv > 64 {
		return 0, nil, nil, fmt.Errorf("scenario: RSC1 traces carry at most 64 agents, got %d", nv)
	}
	if v2 && nv <= 64 {
		return 0, nil, nil, fmt.Errorf("scenario: RSC2 trace with %d agents; canonical encodings of n <= 64 are RSC1", nv)
	}
	n = int(nv)
	prefixLen, err := d.uvarint("prefix length")
	if err != nil {
		return 0, nil, nil, err
	}
	loopLen, err := d.uvarint("loop length")
	if err != nil {
		return 0, nil, nil, err
	}
	if prefixLen > MaxRounds || loopLen > MaxRounds {
		return 0, nil, nil, fmt.Errorf("scenario: schedule of %d+%d rounds exceeds the %d-round cap", prefixLen, loopLen, MaxRounds)
	}
	tableLen, err := d.uvarint("table length")
	if err != nil {
		return 0, nil, nil, err
	}
	// Every table entry is referenced at least once in a canonical
	// encoding, so the table can never be larger than the round count.
	if tableLen > prefixLen+loopLen {
		return 0, nil, nil, fmt.Errorf("scenario: %d table entries for %d rounds", tableLen, prefixLen+loopLen)
	}
	// The declared counts must fit the bytes actually present — every
	// table entry needs at least one payload byte per row word and every
	// round index at least one — so a tiny body with an absurd header is
	// rejected here, before the header sizes any allocation. (Counts are
	// capped above, so this sum cannot overflow.)
	w := graph.WordsFor(n)
	if need := tableLen*uint64(n*w) + prefixLen + loopLen; need > uint64(len(data)-d.pos) {
		return 0, nil, nil, fmt.Errorf("scenario: header declares %d payload bytes but %d remain", need, len(data)-d.pos)
	}
	table := make([]graph.Graph, tableLen)
	words := make([]uint64, n*w)
	for t := range table {
		for i := range words {
			m, err := d.uvarint("graph mask")
			if err != nil {
				return 0, nil, nil, err
			}
			words[i] = m
		}
		g, err := graph.FromInWords(n, words)
		if err != nil {
			return 0, nil, nil, err
		}
		table[t] = g
	}
	readRounds := func(count uint64, what string) ([]graph.Graph, error) {
		out := make([]graph.Graph, count)
		for i := range out {
			idx, err := d.uvarint(what)
			if err != nil {
				return nil, err
			}
			if idx >= tableLen {
				return nil, fmt.Errorf("scenario: %s references graph %d of %d", what, idx, tableLen)
			}
			out[i] = table[idx]
		}
		return out, nil
	}
	if prefix, err = readRounds(prefixLen, "prefix round"); err != nil {
		return 0, nil, nil, err
	}
	if loop, err = readRounds(loopLen, "loop round"); err != nil {
		return 0, nil, nil, err
	}
	if d.pos != len(data) {
		return 0, nil, nil, fmt.Errorf("scenario: %d trailing bytes after payload", len(data)-d.pos)
	}
	return n, prefix, loop, nil
}

// Fingerprint returns the hex SHA-256 digest of the canonical encoding —
// the schedule's identity for caches and replay verification. The
// encoding is hashed chunk by chunk as it is produced, so no trace is
// built: a 256-agent schedule's rows are near-full words of ten uvarint
// bytes each, and its trace runs to hundreds of kilobytes.
func Fingerprint(n int, prefix, loop []graph.Graph) string {
	h := sha256.New()
	encodeTo(h, n, prefix, loop)
	return hex.EncodeToString(h.Sum(nil))
}
