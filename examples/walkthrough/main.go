// Walkthrough reproduces the story of Figures 1–4 of the paper on a small
// concrete instance, printing the state after each step of the Lemma 4.2
// machinery:
//
//	Figure 1: a list coloring instance with a defective edge coloring g(e)
//	Figure 2: the slack-β algorithm colors the active edges of class "red"
//	Figure 3: the next class — every edge still has a large list, all active
//	Figure 4: a class where most lists shrank below deg(e)/2 → recurse
//
// The figures' exact drawing is decorative; what is reproduced is the
// quantitative invariant at each boundary: active edges have |Le| >
// deg(e)/2, colored classes never conflict, and the uncolored remainder's
// maximum degree halves.
package main

import (
	"fmt"
	"log"

	"github.com/distec/distec/internal/defective"
	"github.com/distec/distec/internal/graph"
	"github.com/distec/distec/internal/listcolor"
	"github.com/distec/distec/internal/local"
	"github.com/distec/distec/internal/verify"
)

func main() {
	// A small dense instance, in the spirit of the figures.
	g := graph.GNP(18, 0.33, 5)
	c := 2*g.MaxDegree() - 1
	in := listcolor.NewUniform(g, c)
	fmt.Printf("instance: %v, palette 2Δ−1 = %d (uniform lists)\n\n", g, c)

	// ---- Figure 1: defective edge coloring with parameter β. ----
	beta := 1
	def, err := defective.ColorGraph(g, nil, beta, local.Sequential)
	if err != nil {
		log.Fatal(err)
	}
	classes := map[int][]graph.EdgeID{}
	for e := 0; e < g.M(); e++ {
		classes[def.Colors[e]] = append(classes[def.Colors[e]], graph.EdgeID(e))
	}
	fmt.Printf("Figure 1 — deg(e)/2β-defective coloring: %d non-empty classes of palette %d, max defect %d, %d rounds\n",
		len(classes), def.Palette, defective.MaxDefect(g, nil, def.Colors), def.Stats.Rounds)

	// ---- Figures 2–4: iterate over the classes. ----
	colors := make([]int, g.M())
	for e := range colors {
		colors[e] = -1
	}
	uncolored := g.M()
	degAtStart := make([]int, g.M())
	for e := 0; e < g.M(); e++ {
		degAtStart[e] = g.EdgeDegree(graph.EdgeID(e))
	}
	fig := 2
	for class := 0; class < def.Palette && uncolored > 0; class++ {
		members := classes[class]
		if len(members) == 0 {
			continue
		}
		// Prune lists by colors used next to each member; mark active those
		// with |Le| > deg(e)/2.
		subActive := make([]bool, g.M())
		subLists := make([][]int, g.M())
		marked := 0
		for _, e := range members {
			if colors[e] >= 0 {
				continue
			}
			used := map[int]bool{}
			g.ForEachEdgeNeighbor(e, func(f graph.EdgeID) {
				if colors[f] >= 0 {
					used[colors[f]] = true
				}
			})
			var pruned []int
			for _, col := range in.Lists[e] {
				if !used[col] {
					pruned = append(pruned, col)
				}
			}
			if 2*len(pruned) > degAtStart[e] {
				subActive[e] = true
				subLists[e] = pruned
				marked++
			}
		}
		if marked == 0 {
			fmt.Printf("Figure 4 — class %d: every member's list shrank to ≤ deg(e)/2 → deferred to the recursion\n", class)
			continue
		}
		got, _, err := listcolor.SolveBase(&listcolor.Instance{G: g, Active: subActive, Lists: subLists, C: c}, nil, 0, local.Sequential)
		if err != nil {
			log.Fatal(err)
		}
		newly := 0
		for e := range got {
			if subActive[e] && got[e] >= 0 {
				colors[e] = got[e]
				uncolored--
				newly++
			}
		}
		if fig <= 3 {
			fmt.Printf("Figure %d — class %d: %d members, %d marked active (|Le| > deg(e)/2), %d colored (bold edges)\n",
				fig, class, len(members), marked, newly)
			fig++
		}
	}

	// ---- The recursion boundary of Figure 4. ----
	remaining := 0
	maxDeg := 0
	for e := 0; e < g.M(); e++ {
		if colors[e] >= 0 {
			continue
		}
		remaining++
		d := 0
		g.ForEachEdgeNeighbor(graph.EdgeID(e), func(f graph.EdgeID) {
			if colors[f] < 0 {
				d++
			}
		})
		if d > maxDeg {
			maxDeg = d
		}
	}
	fmt.Printf("\nafter one sweep: %d/%d edges colored; uncolored remainder has max degree %d (started at Δ̄ = %d — Lemma 4.2 guarantees ≤ %d)\n",
		g.M()-remaining, g.M(), maxDeg, g.MaxEdgeDegree(), g.MaxEdgeDegree()/2)

	// ---- "Recurse": finish the remainder and verify everything. ----
	if remaining > 0 {
		cur := make([]bool, g.M())
		lists := make([][]int, g.M())
		for e := 0; e < g.M(); e++ {
			if colors[e] >= 0 {
				continue
			}
			cur[e] = true
			used := map[int]bool{}
			g.ForEachEdgeNeighbor(graph.EdgeID(e), func(f graph.EdgeID) {
				if colors[f] >= 0 {
					used[colors[f]] = true
				}
			})
			for _, col := range in.Lists[e] {
				if !used[col] {
					lists[e] = append(lists[e], col)
				}
			}
		}
		got, _, err := listcolor.SolveBase(&listcolor.Instance{G: g, Active: cur, Lists: lists, C: c}, nil, 0, local.Sequential)
		if err != nil {
			log.Fatal(err)
		}
		for e := range got {
			if cur[e] {
				colors[e] = got[e]
			}
		}
	}
	if err := verify.EdgeColoring(g, nil, colors); err != nil {
		log.Fatal(err)
	}
	if err := verify.ListRespecting(g, nil, in.Lists, colors); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("final: all %d edges properly colored from their lists ✓ (%d distinct colors of %d)\n",
		g.M(), verify.CountColors(colors), c)
}
