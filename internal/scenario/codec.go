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
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

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
	if n < 1 || n > graph.MaxNodes {
		panic(fmt.Sprintf("scenario: invalid agent count %d", n))
	}
	// Deduplicate graphs in first-occurrence order across prefix then
	// loop, keyed by the raw little-endian mask rows. Keying cost matters
	// because encoding (and therefore fingerprinting) sits on the
	// session-construction path of scenario sweeps. Schedules hold one
	// Graph value per round and epoch-style generators repeat it for
	// whole stretches, so a constant-time identity check against the
	// previous round (graph.Same) skips the keying entirely on the
	// common consecutive-repeat case.
	table := make([]graph.Graph, 0, 8)
	index := make(map[string]int, 8)
	keyBuf := make([]byte, 0, n*8)
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
		i, ok := index[string(keyBuf)]
		if !ok {
			i = len(table)
			index[string(keyBuf)] = i
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

	w := graph.WordsFor(n)
	buf := make([]byte, 0, 16+len(table)*n*w+len(prefixIdx)+len(loopIdx))
	if w == 1 {
		buf = append(buf, magic...)
	} else {
		buf = append(buf, magicV2...)
	}
	buf = binary.AppendUvarint(buf, uint64(n))
	buf = binary.AppendUvarint(buf, uint64(len(prefixIdx)))
	buf = binary.AppendUvarint(buf, uint64(len(loopIdx)))
	buf = binary.AppendUvarint(buf, uint64(len(table)))
	for _, g := range table {
		for i := 0; i < n; i++ {
			for _, word := range g.InRow(i) {
				buf = binary.AppendUvarint(buf, word)
			}
		}
	}
	for _, i := range prefixIdx {
		buf = binary.AppendUvarint(buf, uint64(i))
	}
	for _, i := range loopIdx {
		buf = binary.AppendUvarint(buf, uint64(i))
	}
	return buf
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
// the schedule's identity for caches and replay verification.
func Fingerprint(n int, prefix, loop []graph.Graph) string {
	sum := sha256.Sum256(Encode(n, prefix, loop))
	return hex.EncodeToString(sum[:])
}
