package main

import (
	"fmt"
	"sync"

	"ripple/internal/dataset"
)

// verdict tallies the correctness check of a run's operations. Every check
// runs after the timed window.
type verdict struct {
	attempted, reads, writes int
	errors                   int           // ops that returned an error or were refused
	wrong                    map[*rec]bool // ops with a wrong outcome: answer differs from the oracle, partial, duplicate delivery, wrong ack count
	partial                  int           // reads whose answer is marked partial
	checked                  int           // reads compared against an oracle
	skipped                  int           // reads overlapping a write, whose expected state is ambiguous
	classes                  map[string]int
	first                    string // first failure, for the report
}

func (v *verdict) fail(r *rec, format string, args ...interface{}) {
	v.wrong[r] = true
	if v.first == "" {
		v.first = fmt.Sprintf(format, args...)
	}
}

func (v *verdict) failed() int { return v.errors + len(v.wrong) }

// tally counts outcomes common to every workload: errors, partial answers,
// and the exactly-once guarantee (no peer processes a query twice).
func tally(recs []rec) *verdict {
	v := &verdict{classes: make(map[string]int), wrong: make(map[*rec]bool)}
	for i := range recs {
		r := &recs[i]
		v.attempted++
		if r.op.kind != opRead {
			v.writes++
		} else {
			v.reads++
		}
		if r.err != nil {
			v.errors++
			if v.first == "" {
				v.first = fmt.Sprintf("op %d: %v", r.op.id, r.err)
			}
			continue
		}
		if r.res != nil && r.res.Partial() {
			v.partial++
			v.fail(r, "op %d: partial answer", r.op.id)
		}
		if r.maxPerPeer > 1 {
			v.fail(r, "op %d: a peer processed the query %d times", r.op.id, r.maxPerPeer)
		}
	}
	return v
}

// checkEvery is the sampling stride of closed-loop TCP checks: a read is
// checked when a hash of the seed and its op id falls on the stride, or when
// it is the first read of its family x r class, so every class is covered.
const checkEvery = 5

// check compares a seeded sample of a read-only TCP run's reads against the
// brute-force oracle over the loaded data. Under R=2 with one dead peer the
// expected answer is still the healthy fleet's, so the same oracle applies.
func (w *tcpWorkload) check(recs []rec) *verdict {
	v := tally(recs)
	if w.name == "tcp-zipf-rw" {
		w.checkRW(recs, v)
		return v
	}
	seen := make(map[string]bool)
	var jobs []job
	for i := range recs {
		r := &recs[i]
		if r.err != nil {
			continue
		}
		class := r.op.q.class()
		if !seen[class] || mix(uint64(w.seed), uint64(r.op.id))%checkEvery == 0 {
			seen[class] = true
			jobs = append(jobs, job{r, w.data})
		}
	}
	v.compareAll(jobs)
	return v
}

// mix hashes two words (splitmix64 finalizer).
func mix(a, b uint64) uint64 {
	z := a*0x9e3779b97f4a7c15 + b
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// job is one read to compare against the oracle over model.
type job struct {
	r     *rec
	model []dataset.Tuple
}

// compareAll runs the oracle comparisons on two goroutines (nproc on the
// reference machine); they run after the timed window.
func (v *verdict) compareAll(jobs []job) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(jobs); i += 2 {
				ok, detail := matches(jobs[i].r, jobs[i].model)
				mu.Lock()
				v.checked++
				v.classes[jobs[i].r.op.q.class()]++
				if !ok {
					v.fail(jobs[i].r, "op %d (%s): %s", jobs[i].r.op.id, jobs[i].r.op.q.class(), detail)
				}
				mu.Unlock()
			}
		}(g)
	}
	wg.Wait()
}

// matches compares one read's final answer with the oracle's.
func matches(r *rec, model []dataset.Tuple) (bool, string) {
	if r.div != nil {
		for i, s := range r.div.steps {
			if !divStepOK(r.op.q, model, s) {
				return false, fmt.Sprintf("single-tuple step %d is not a brute-force minimiser", i)
			}
		}
		return true, ""
	}
	got := r.answer
	if r.res != nil {
		got = final(r.op.q, r.res.Answers)
	}
	if want := oracle(r.op.q, model); !sameAnswer(got, want) {
		return false, fmt.Sprintf("answer differs from the oracle: got %d tuples, want %d", len(got), len(want))
	}
	return true, ""
}

// checkRW checks tcp-zipf-rw: every write must reach owner and mirrors, and
// every read whose send-to-reply window overlaps no write must match the
// oracle over the loaded data plus the writes acknowledged before it was
// sent. Cache hits are checked too, so a stale read shows.
func (w *tcpWorkload) checkRW(recs []rec, v *verdict) {
	var writes []*rec
	for i := range recs {
		r := &recs[i]
		if r.op.kind == opRead || r.err != nil {
			continue
		}
		writes = append(writes, r)
		if r.acks != w.replication() {
			v.fail(r, "write op %d acked by %d peers, want %d", r.op.id, r.acks, w.replication())
		}
	}
	var jobs []job
	scoped := make(map[*query][]dataset.Tuple)
	for i := range recs {
		r := &recs[i]
		if r.op.kind != opRead || r.err != nil {
			continue
		}
		live, ok := writtenBefore(writes, r)
		if !ok {
			v.skipped++
			continue
		}
		base, ok := scoped[r.op.q]
		if !ok {
			base = inScope(w.data, r.op.q)
			scoped[r.op.q] = base
		}
		jobs = append(jobs, job{r, append(base[:len(base):len(base)], live...)})
	}
	v.compareAll(jobs)
}

// writtenBefore lists the benchmark's tuples a read must see: those inserted
// and not deleted by writes acknowledged before the read was sent (deletes
// only remove the benchmark's own inserts). It reports false when a write was
// in flight during the read.
func writtenBefore(writes []*rec, read *rec) ([]dataset.Tuple, bool) {
	inserted := map[uint64]dataset.Tuple{}
	var order []uint64
	for _, wr := range writes {
		if !wr.end.Before(read.start) {
			if wr.start.Before(read.end) {
				return nil, false
			}
			continue
		}
		id := wr.op.tuple.ID
		if wr.op.kind == opInsert {
			inserted[id] = wr.op.tuple
			order = append(order, id)
		} else {
			delete(inserted, id)
		}
	}
	var live []dataset.Tuple
	for _, id := range order {
		if t, ok := inserted[id]; ok {
			live = append(live, t)
		}
	}
	return live, true
}

// divChecks is how many diversification reads of an engine run are checked
// step by step against the brute-force solver (each check costs about 15
// scans of the whole data set).
const divChecks = 3

// check compares the engine reads against the oracle: every top-k, skyline
// and kNN read, and the first divChecks diversification reads. A query issued
// again (the list wraps, and traced runs replay it) is compared against its
// first answer.
func (w *engineWorkload) check(recs []rec) *verdict {
	v := tally(recs)
	verified := make(map[*op]*rec)
	var jobs []job
	divs := 0
	for i := range recs {
		r := &recs[i]
		if r.err != nil {
			continue
		}
		if r.maxPerPeer < 1 {
			v.fail(r, "op %d: the initiator never processed the query", r.op.id)
		}
		if first, ok := verified[r.op]; ok {
			if !sameRead(first, r) {
				v.fail(r, "op %d: answer differs from the same query's earlier answer", r.op.id)
			}
			continue
		}
		verified[r.op] = r
		if r.div != nil {
			if divs++; divs > divChecks {
				continue
			}
		}
		jobs = append(jobs, job{r, w.data})
	}
	v.compareAll(jobs)
	return v
}

func sameRead(a, b *rec) bool {
	if a.div != nil || b.div != nil {
		return a.div != nil && b.div != nil && sameAnswer(a.div.set, b.div.set)
	}
	return sameAnswer(a.answer, b.answer)
}
