package scenario

import (
	"context"
	"fmt"

	"repro/internal/graph"
	"repro/internal/model"
)

// Certificate is the result of checking a schedule horizon against the
// paper's solvability preconditions. All round numbers are 1-based; a
// First* field of 0 means "no violation within the horizon".
type Certificate struct {
	// N is the agent count, Rounds the checked horizon.
	N      int `json:"n"`
	Rounds int `json:"rounds"`

	// Rooted reports whether every checked round's graph is rooted — the
	// per-round form of the paper's asymptotic-consensus solvability
	// condition (Section 2.2, Theorem 1: solvable iff every graph of the
	// model is rooted). FirstUnrooted is the earliest offending round.
	Rooted        bool `json:"rooted"`
	FirstUnrooted int  `json:"first_unrooted,omitempty"`

	// NonSplit reports whether every checked round's graph is non-split,
	// the precondition for the midpoint algorithm's optimal 1/2
	// contraction per round (Section 8, Algorithm 2).
	NonSplit   bool `json:"non_split"`
	FirstSplit int  `json:"first_split,omitempty"`

	// RootedWindow is the smallest k such that every k consecutive
	// rounds of the schedule *as replayed forever* have a rooted product
	// — the eventually-rooted(k) certificate under which the amortized
	// midpoint contracts every k rounds. Unlike the per-round fields it
	// is a property of the whole schedule, not of the checked horizon:
	// the lasso shape makes the infinite check finite (window contents
	// repeat once the start passes the prefix). 1 means every round is
	// rooted; 0 means no such k was found up to MaxRootedWindow — or,
	// when RootedWindowSkipped is set, that the schedule has more than
	// MaxRootedWindowStarts distinct window starts and the k >= 2
	// search was skipped (never truncated to a false "yes").
	RootedWindow        int  `json:"rooted_window,omitempty"`
	RootedWindowSkipped bool `json:"rooted_window_skipped,omitempty"`

	// ModelChecked marks certificates computed against a model;
	// ModelMember then reports whether every checked round's graph is a
	// member, with FirstNonMember the earliest round playing a graph
	// outside the model. A schedule whose rounds all lie inside a model
	// inherits every bound proven for that model.
	ModelChecked   bool `json:"model_checked"`
	ModelMember    bool `json:"model_member,omitempty"`
	FirstNonMember int  `json:"first_non_member,omitempty"`
}

// MaxRootedWindow caps the eventually-rooted window length searched:
// windows beyond this length are of no practical certification value.
const MaxRootedWindow = 64

// MaxRootedWindowStarts caps the number of distinct window starts the
// eventually-rooted search will scan (one per prefix round plus one per
// loop round — starts beyond that repeat by periodicity). Schedules
// with larger lassos skip the k >= 2 search and report RootedWindow 0
// (an under-claim, never a false certificate), which bounds the
// worst-case certification cost at MaxRootedWindowStarts·(MaxRootedWindow−1)
// graph products regardless of the schedule or horizon a client
// uploads.
const MaxRootedWindowStarts = 4096

// Certify checks the first rounds rounds of the schedule (its Horizon
// when rounds <= 0) against the paper's per-round preconditions, and
// against model membership when m is non-nil. m must be on the same
// agent count. Certification honors ctx — the horizon and the window
// search are client-controlled work, so servers bound it with their
// per-query deadline — returning ctx.Err() when cancelled.
func (s *Schedule) Certify(ctx context.Context, rounds int, m *model.Model) (Certificate, error) {
	if rounds <= 0 {
		rounds = s.Horizon()
	}
	if m != nil && m.N() != s.n {
		return Certificate{}, fmt.Errorf("scenario: certifying a %d-agent schedule against a %d-agent model", s.n, m.N())
	}
	cert := Certificate{
		N: s.n, Rounds: rounds,
		Rooted: true, NonSplit: true,
		ModelChecked: m != nil, ModelMember: m != nil,
	}
	// Distinct graphs are few by construction (the codec dedups them);
	// memoize the per-graph predicates so a million-round schedule over a
	// handful of topologies costs a handful of root computations.
	type props struct{ rooted, nonSplit, member bool }
	memo := make(map[string]props, 8)
	var key []byte
	done := ctx.Done()
	for t := 1; t <= rounds; t++ {
		if done != nil && t%65536 == 0 {
			select {
			case <-done:
				return Certificate{}, ctx.Err()
			default:
			}
		}
		g := s.At(t)
		key = graphMemoKey(key, g)
		p, ok := memo[string(key)]
		if !ok {
			p = props{rooted: g.IsRooted(), nonSplit: g.IsNonSplit()}
			if m != nil {
				p.member = m.Contains(g)
			}
			memo[string(key)] = p
		}
		if !p.rooted && cert.FirstUnrooted == 0 {
			cert.Rooted = false
			cert.FirstUnrooted = t
		}
		if !p.nonSplit && cert.FirstSplit == 0 {
			cert.NonSplit = false
			cert.FirstSplit = t
		}
		if m != nil && !p.member && cert.FirstNonMember == 0 {
			cert.ModelMember = false
			cert.FirstNonMember = t
		}
	}
	window, windowSkipped, err := s.rootedWindow(ctx)
	if err != nil {
		return Certificate{}, err
	}
	cert.RootedWindow, cert.RootedWindowSkipped = window, windowSkipped
	return cert, nil
}

// rootedWindow returns the smallest k <= MaxRootedWindow such that
// every window of k consecutive rounds of the replayed schedule has a
// rooted product, or 0 when none qualifies (or the search is skipped;
// see MaxRootedWindowStarts). Information that flows along G1 then G2
// flows along their product (paper, Section 2), so a rooted k-window
// product certifies that some agent's value reaches everyone within
// any k rounds.
//
// The replayed schedule is infinite, but its windows are not: a window
// starting past the prefix repeats with the loop period (and every
// window of a finite schedule starting past the prefix is the repeated
// last graph alone), so scanning starts 1..PrefixLen+max(LoopLen,1) —
// with windows extending past the horizon through At — covers every
// window the schedule ever plays.
func (s *Schedule) rootedWindow(ctx context.Context) (window int, skipped bool, err error) {
	// k = 1 is "every graph the schedule ever plays is rooted", which
	// needs no products: scan the distinct graphs with memoization.
	memo := make(map[string]bool, 8)
	var key []byte
	rooted := func(g graph.Graph) bool {
		key = graphMemoKey(key, g)
		r, ok := memo[string(key)]
		if !ok {
			r = g.IsRooted()
			memo[string(key)] = r
		}
		return r
	}
	allRooted := true
	for _, g := range s.prefix {
		if !rooted(g) {
			allRooted = false
			break
		}
	}
	if allRooted {
		for _, g := range s.loop {
			if !rooted(g) {
				allRooted = false
				break
			}
		}
	}
	if allRooted {
		return 1, false, nil
	}
	starts := len(s.prefix) + max(len(s.loop), 1)
	if starts > MaxRootedWindowStarts {
		return 0, true, nil
	}
	// Each start's window grows one product at a time, and the first
	// rooted length is that start's answer: every graph carries its
	// self-loops, so G·H ⊇ G ∪ H and a rooted window stays rooted as it
	// grows. The schedule's window is the largest answer over all starts.
	done := ctx.Done()
	products := 0
	for start := 1; start <= starts; start++ {
		p, k := s.At(start), 1
		for !p.IsRooted() {
			if k == MaxRootedWindow {
				return 0, false, nil
			}
			if products++; done != nil && products%256 == 0 {
				select {
				case <-done:
					return 0, false, ctx.Err()
				default:
				}
			}
			p = graph.Product(p, s.At(start+k))
			k++
		}
		window = max(window, k)
	}
	return window, false, nil
}

// Summary renders the certificate as the human-readable lines the
// scenario tool prints.
func (c Certificate) Summary() string {
	verdict := func(ok bool, firstBad int, okText, badText string) string {
		if ok {
			return okText
		}
		return fmt.Sprintf("%s (first at round %d)", badText, firstBad)
	}
	out := fmt.Sprintf("rounds certified:        %d (n=%d)\n", c.Rounds, c.N)
	out += "rooted every round:      " + verdict(c.Rooted, c.FirstUnrooted,
		"yes — asymptotic consensus solvable over these graphs (Theorem 1)", "no") + "\n"
	out += "non-split every round:   " + verdict(c.NonSplit, c.FirstSplit,
		"yes — midpoint contracts by 1/2 per round (Algorithm 2)", "no") + "\n"
	switch {
	case c.RootedWindow == 1:
		out += "rooted window:           1 (every round rooted)\n"
	case c.RootedWindow > 1:
		out += fmt.Sprintf("rooted window:           %d (eventually rooted: every %d-round product is rooted)\n",
			c.RootedWindow, c.RootedWindow)
	case c.RootedWindowSkipped:
		out += fmt.Sprintf("rooted window:           not searched (more than %d distinct window starts)\n", MaxRootedWindowStarts)
	default:
		out += fmt.Sprintf("rooted window:           none up to %d\n", MaxRootedWindow)
	}
	if c.ModelChecked {
		out += "model membership:        " + verdict(c.ModelMember, c.FirstNonMember,
			"yes — every round plays a model graph", "no") + "\n"
	}
	return out
}
