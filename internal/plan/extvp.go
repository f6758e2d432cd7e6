package plan

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cluster"
)

// This file is the workload-rewrite pre-pass: before join ordering, a
// single-pattern VP leaf whose predicate has a live materialized
// semi-join reduction (ExtVP table) against a sibling pattern in the
// same BGP is rewritten to scan the reduction instead of the full VP
// table. The reduction holds exactly the rows that survive the join
// with the partner's full table, so for a conjunctive BGP — where that
// join happens — the rewritten scan produces a superset of the rows
// the join will keep and the final result is unchanged; only the
// bytes read and shuffled shrink. A rewrite is kept only when the
// repriced scan is strictly cheaper, and every candidate considered is
// recorded on the plan so EXPLAIN can attribute declined rewrites.

// ExtVPProvider resolves materialized semi-join reductions for the
// planner. The workload model (via the core store) implements it.
type ExtVPProvider interface {
	// ExtVPTable returns the live reduction of pred against partner at
	// pos (PairPos encoding, seen from pred's side): the reduction's
	// exact row count and the full VP table's row count it was reduced
	// from. ok=false when no such table is currently materialized.
	ExtVPTable(pred, partner uint64, pos uint8) (tableRows, sourceRows int64, ok bool)
}

// ExtVPRef annotates a rewritten Scan with the reduction it reads; the
// executor resolves it back to the materialized table (falling back to
// the full VP table when the reduction was evicted in between).
type ExtVPRef struct {
	// Pred is the scanned predicate; Partner the predicate it was
	// semi-join-reduced against; Pos the join position from Pred's side.
	Pred, Partner uint64
	Pos           PairPos
	// TableRows is the reduction's exact cardinality at plan time.
	TableRows int64
}

// Rewrite records one candidate scan rewrite the pre-pass considered,
// applied or declined — the EXPLAIN workload block's rows.
type Rewrite struct {
	// Leaf is the candidate scan's label; Pred/Partner/Pos identify the
	// reduction considered.
	Leaf          string
	Pred, Partner uint64
	Pos           PairPos
	// TableRows and SourceRows are the reduction's and the full VP
	// table's cardinalities.
	TableRows, SourceRows int64
	// OldEst and NewEst are the leaf estimates before and after; OldTime
	// and NewTime the priced scan times the decision compared.
	OldEst, NewEst   float64
	OldTime, NewTime time.Duration
	// Applied reports the decision; Reason explains a decline.
	Applied bool
	Reason  string
}

// scanPrice prices reading est rows of the given width — the same
// arithmetic scanState charges, factored out so the rewrite decision
// compares exactly what the plan will be priced at.
func scanPrice(est float64, width int, c Costs) time.Duration {
	return c.Model.TaskTime(cluster.TaskStats{
		DiskBytes: estBytesFor(est, width, c) / int64(c.Workers),
		Rows:      estRows(est) / int64(c.Workers),
	})
}

// rewriteLeaves applies the ExtVP pre-pass. It returns the (possibly
// copied and modified) leaves and the record of every candidate
// considered. Leaves are modified copy-on-write: callers' slices are
// never touched.
func rewriteLeaves(leaves []Leaf, c Costs) ([]Leaf, []Rewrite) {
	if c.ExtVP == nil {
		return leaves, nil
	}
	var recs []Rewrite
	out := leaves
	for i := range leaves {
		l := &leaves[i]
		if !l.Reducible || len(l.Pats) != 1 || l.ExtVP != nil {
			continue
		}
		pat := l.Pats[0]
		first := len(recs) // this leaf's records start here
		best := -1         // index into recs of the best applicable candidate
		for j := range leaves {
			if j == i {
				continue
			}
			for _, pp := range leaves[j].Pats {
				for _, v := range sharedPatVars(pat, pp) {
					for _, lSubj := range patPositions(pat, v) {
						for _, rSubj := range patPositions(pp, v) {
							pos := pairPos(lSubj, rSubj)
							tRows, sRows, ok := c.ExtVP.ExtVPTable(pat.Pred, pp.Pred, uint8(pos))
							if !ok {
								continue
							}
							rec := priceRewrite(l, pat, pp.Pred, pos, tRows, sRows, c)
							recs = append(recs, rec)
							if rec.Reason == "" {
								if best < 0 || rec.NewTime < recs[best].NewTime ||
									(rec.NewTime == recs[best].NewTime && lessRewrite(rec, recs[best])) {
									best = len(recs) - 1
								}
							}
						}
					}
				}
			}
		}
		if best < 0 {
			continue
		}
		for k := first; k < len(recs); k++ {
			if recs[k].Reason != "" {
				continue
			}
			if k == best {
				recs[k].Applied = true
			} else {
				recs[k].Reason = "better candidate chosen"
			}
		}
		b := recs[best]
		if sameSlice(out, leaves) {
			out = append([]Leaf(nil), leaves...)
		}
		nl := out[i]
		nl.Est = b.NewEst
		nl.EstSource = EstExtVP
		nl.ExtVP = &ExtVPRef{Pred: b.Pred, Partner: b.Partner, Pos: b.Pos, TableRows: b.TableRows}
		out[i] = nl
	}
	return out, recs
}

// priceRewrite evaluates one candidate reduction for a leaf: the
// rewritten estimate (exact table rows for an unbound pattern, the
// old estimate scaled by the reduction ratio when a position is
// bound), both priced scan times, and the decline reason if any.
func priceRewrite(l *Leaf, pat PatRef, partner uint64, pos PairPos, tRows, sRows int64, c Costs) Rewrite {
	rec := Rewrite{
		Leaf: l.Label, Pred: pat.Pred, Partner: partner, Pos: pos,
		TableRows: tRows, SourceRows: sRows,
		OldEst: l.Est, OldTime: scanPrice(l.Est, len(l.Vars), c),
	}
	if pat.SVar != "" && pat.OVar != "" {
		rec.NewEst = float64(tRows)
	} else if sRows > 0 {
		rec.NewEst = l.Est * float64(tRows) / float64(sRows)
	} else {
		rec.NewEst = 0
	}
	rec.NewTime = scanPrice(rec.NewEst, len(l.Vars), c)
	switch {
	case tRows >= sRows:
		rec.Reason = "reduction not smaller than source"
	case rec.NewTime >= rec.OldTime:
		rec.Reason = "not priced cheaper"
	}
	return rec
}

// lessRewrite orders equally priced candidates deterministically.
func lessRewrite(a, b Rewrite) bool {
	if a.Partner != b.Partner {
		return a.Partner < b.Partner
	}
	return a.Pos < b.Pos
}

// sharedPatVars lists the variables two patterns share.
func sharedPatVars(a, b PatRef) []string {
	var out []string
	add := func(v string) {
		if v == "" {
			return
		}
		for _, x := range out {
			if x == v {
				return
			}
		}
		if v == b.SVar || v == b.OVar {
			out = append(out, v)
		}
	}
	add(a.SVar)
	add(a.OVar)
	return out
}

// sameSlice reports whether two slices share backing storage and
// length — the copy-on-write guard.
func sameSlice(a, b []Leaf) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// JoinObservation is one executed join's predicate-pair record, mined
// from a stamped plan to feed the workload model.
type JoinObservation struct {
	// P1 and P2 are the predicates on the left and right side; Pos the
	// join position (PairPos encoding, from P1's side).
	P1, P2 uint64
	Pos    PairPos
	// Rows is the join's observed output cardinality.
	Rows int64
}

// JoinObservations mines a stamped plan for executed joins: every Join
// node with an observed cardinality yields one observation per
// predicate pair exposing a join variable on opposite sides — the same
// pair resolution the sketch estimator prices with.
func (p *Plan) JoinObservations() []JoinObservation {
	var out []JoinObservation
	var pats func(n *Node) []PatRef
	pats = func(n *Node) []PatRef {
		if n.Op == OpScan {
			if n.Leaf >= 0 && n.Leaf < len(p.Leaves) {
				return p.Leaves[n.Leaf].Pats
			}
			return nil
		}
		var acc []PatRef
		for _, c := range n.Children {
			acc = append(acc, pats(c)...)
		}
		return acc
	}
	var walk func(n *Node)
	walk = func(n *Node) {
		for _, c := range n.Children {
			walk(c)
		}
		if n.Op != OpJoin || n.Actual < 0 || len(n.Children) != 2 {
			return
		}
		lp, rp := pats(n.Children[0]), pats(n.Children[1])
		for _, v := range n.JoinVars {
			for _, l := range lp {
				for _, lSubj := range patPositions(l, v) {
					for _, r := range rp {
						for _, rSubj := range patPositions(r, v) {
							out = append(out, JoinObservation{
								P1: l.Pred, P2: r.Pred,
								Pos: pairPos(lSubj, rSubj), Rows: n.Actual,
							})
						}
					}
				}
			}
		}
	}
	walk(p.Root)
	return out
}

// RewriteSummary renders the plan's workload-rewrite block for
// EXPLAIN: every candidate reduction considered with its priced delta
// and the applied/declined decision. Empty when the pre-pass had no
// candidates.
func (p *Plan) RewriteSummary() string {
	if len(p.Rewrites) == 0 {
		return ""
	}
	var sb strings.Builder
	sb.WriteString("workload rewrites:\n")
	for _, r := range p.Rewrites {
		verdict := "declined"
		detail := r.Reason
		if r.Applied {
			verdict = "applied"
			detail = fmt.Sprintf("est %.4g -> %.4g rows", r.OldEst, r.NewEst)
		}
		fmt.Fprintf(&sb, "  %s %s: p%d reduced by p%d at %s (%d of %d rows), priced %v -> %v",
			verdict, r.Leaf, r.Pred, r.Partner, r.Pos, r.TableRows, r.SourceRows, r.OldTime, r.NewTime)
		if detail != "" {
			sb.WriteString(" — " + detail)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
