// lockorder: whole-program lock-acquisition ordering (DESIGN.md §10.8). The
// concurrent transport stacks several mutexes — mux table, per-connection
// stream table and write lock, server registry — on call paths that cross
// package boundaries (netpeer mux/server, storage.RTree), where an
// inconsistent acquisition order is a deadlock that only a rare interleaving
// exposes. lockcheck (PR 3) guards individual counters; lockorder builds the
// directed graph "class A held while acquiring class B" over every function
// in the load — following calls made under a lock into their transitive
// acquisitions via facts — and flags each edge of any cycle.
//
// The per-function trace is linear in source order (branches are read
// top-to-bottom), which is exact for the straight lock/unlock sequences real
// code writes and keeps the analysis cheap; a deferred Unlock holds its lock
// to the end of the function, matching Go semantics.
package lint

import (
	"go/token"
	"sort"
	"strings"
)

var LockOrderAnalyzer = &Analyzer{
	Name: "lockorder",
	Doc:  "mutex acquisition order must be acyclic across the whole program (deadlock candidates)",
	Run:  runLockOrder,
}

type lockEdge struct {
	from, to string
	pos      token.Pos
	fn       string
}

func runLockOrder(pass *Pass) error {
	facts := pass.Facts
	edges := make(map[[2]string]lockEdge)
	addEdge := func(from, to string, pos token.Pos, fn string) {
		key := [2]string{from, to}
		if _, ok := edges[key]; !ok {
			edges[key] = lockEdge{from: from, to: to, pos: pos, fn: fn}
		}
	}
	for _, fn := range facts.funcs {
		var held []string
		for _, ev := range facts.lockEvents[fn] {
			switch ev.kind {
			case evAcquire:
				for _, h := range held {
					addEdge(h, ev.class, ev.pos, fn.FullName())
				}
				held = append(held, ev.class)
			case evRelease:
				for i := len(held) - 1; i >= 0; i-- {
					if held[i] == ev.class {
						held = append(held[:i], held[i+1:]...)
						break
					}
				}
			case evCall:
				if len(held) == 0 {
					continue
				}
				// A callee's transitive acquisitions happen under every lock
				// currently held; h == class is an immediate self-deadlock
				// (re-acquiring a held, non-reentrant lock through a callee).
				for class := range facts.transitiveAcquires(ev.callee) {
					for _, h := range held {
						addEdge(h, class, ev.pos, fn.FullName())
					}
				}
			}
		}
	}

	// Strongly connected components of the class graph; any SCC with a cycle
	// is a deadlock candidate.
	adj := make(map[string][]string)
	nodes := make(map[string]bool)
	for key := range edges {
		adj[key[0]] = append(adj[key[0]], key[1])
		nodes[key[0]], nodes[key[1]] = true, true
	}
	for k := range adj {
		sort.Strings(adj[k])
	}
	sccOf := tarjanSCC(nodes, adj)

	cyclic := make(map[int][]string) // scc id -> member classes
	counts := make(map[int]int)
	for n := range nodes {
		counts[sccOf[n]]++
	}
	for n := range nodes {
		id := sccOf[n]
		if counts[id] > 1 {
			cyclic[id] = append(cyclic[id], n)
		}
	}
	// Self-loops are single-node cycles.
	for key := range edges {
		if key[0] == key[1] {
			id := sccOf[key[0]]
			if counts[id] == 1 {
				cyclic[id] = []string{key[0]}
			}
		}
	}

	// Report every in-cycle edge whose acquisition site is in this package's
	// files, so each edge is diagnosed exactly once per whole-program run.
	passFiles := make(map[string]bool)
	for _, f := range pass.Files {
		passFiles[pass.Fset.Position(f.Pos()).Filename] = true
	}
	var keys [][2]string
	for key := range edges {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, key := range keys {
		e := edges[key]
		id := sccOf[e.from]
		if sccOf[e.to] != id || (counts[id] == 1 && e.from != e.to) {
			continue // edge not part of any cycle
		}
		members := cyclic[id]
		if len(members) == 0 {
			continue
		}
		if !passFiles[pass.Fset.Position(e.pos).Filename] {
			continue
		}
		sort.Strings(members)
		cycle := strings.Join(members, " → ") + " → " + members[0]
		pass.Reportf(e.pos,
			"acquiring %s while holding %s completes a lock-order cycle (%s); impose one global acquisition order",
			shortClass(e.to), shortClass(e.from), shortCycle(cycle))
	}
	return nil
}

// shortClass trims the module prefix off a lock class for readable messages.
func shortClass(c string) string {
	if i := strings.LastIndex(c, "/"); i >= 0 {
		return c[i+1:]
	}
	return c
}

func shortCycle(cycle string) string {
	parts := strings.Split(cycle, " → ")
	for i, p := range parts {
		parts[i] = shortClass(p)
	}
	return strings.Join(parts, " → ")
}

// tarjanSCC assigns each node a component id (iterative Tarjan).
func tarjanSCC(nodes map[string]bool, adj map[string][]string) map[string]int {
	sorted := make([]string, 0, len(nodes))
	for n := range nodes {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	index := make(map[string]int)
	low := make(map[string]int)
	onStack := make(map[string]bool)
	comp := make(map[string]int)
	var stack []string
	counter, compID := 0, 0

	type frame struct {
		node string
		next int
	}
	for _, start := range sorted {
		if _, seen := index[start]; seen {
			continue
		}
		callStack := []frame{{node: start}}
		index[start], low[start] = counter, counter
		counter++
		stack = append(stack, start)
		onStack[start] = true
		for len(callStack) > 0 {
			f := &callStack[len(callStack)-1]
			if f.next < len(adj[f.node]) {
				w := adj[f.node][f.next]
				f.next++
				if _, seen := index[w]; !seen {
					index[w], low[w] = counter, counter
					counter++
					stack = append(stack, w)
					onStack[w] = true
					callStack = append(callStack, frame{node: w})
				} else if onStack[w] {
					if index[w] < low[f.node] {
						low[f.node] = index[w]
					}
				}
				continue
			}
			// Pop.
			if low[f.node] == index[f.node] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = compID
					if w == f.node {
						break
					}
				}
				compID++
			}
			callStack = callStack[:len(callStack)-1]
			if len(callStack) > 0 {
				parent := &callStack[len(callStack)-1]
				if low[f.node] < low[parent.node] {
					low[parent.node] = low[f.node]
				}
			}
		}
	}
	return comp
}
