// Package workload generates the graph databases and query families
// that the root package's Figure 1 test sweeps to assert the paper's
// complexity landscape and that benchmark/ measures the engine on:
// string graphs, the REI hardness graphs of Theorem 6.3, random and
// label-rich graphs, the Section 8.2 flight networks, the serving graph
// and the closed-loop HTTP load generator.
package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/ecrpq"
	"repro/internal/graph"
	"repro/internal/regex"
	"repro/internal/relations"
)

// StringGraph builds the graph G_s of Proposition 3.2 for s: a simple
// line whose edge labels spell s. It returns the graph and the endpoints.
func StringGraph(s string) (*graph.DB, graph.Node, graph.Node) {
	g := graph.NewDB()
	first := g.AddNode("v0")
	prev := first
	for i, r := range s {
		next := g.AddNode(fmt.Sprintf("v%d", i+1))
		g.AddEdge(prev, r, next)
		prev = next
	}
	return g, first, prev
}

// Random builds a random Σ-labeled graph with n nodes and approximately
// avgDeg outgoing edges per node.
func Random(r *rand.Rand, n int, avgDeg float64, sigma []rune) *graph.DB {
	g := graph.NewDB()
	for i := 0; i < n; i++ {
		g.AddNode("")
	}
	edges := int(avgDeg * float64(n))
	for e := 0; e < edges; e++ {
		from := graph.Node(r.Intn(n))
		to := graph.Node(r.Intn(n))
		g.AddEdge(from, sigma[r.Intn(len(sigma))], to)
	}
	return g
}

// REIGraph builds the graph G_R^Σ of Theorem 6.3's hardness reduction:
// nodes v1..v(n+1) over Σ = {a1..an}, with an edge (vi, a, vj) for every
// i ≠ j, where a = a(j−1) if i < j and a = aj otherwise. Its defining
// property: from every node, every string over Σ labels some path.
func REIGraph(sigma []rune) *graph.DB {
	n := len(sigma)
	g := graph.NewDB()
	for i := 0; i <= n; i++ {
		g.AddNode(fmt.Sprintf("v%d", i+1))
	}
	for i := 1; i <= n+1; i++ {
		for j := 1; j <= n+1; j++ {
			if i == j {
				continue
			}
			var a rune
			if i < j {
				a = sigma[j-2]
			} else {
				a = sigma[j-1]
			}
			g.AddEdge(graph.Node(i-1), a, graph.Node(j-1))
		}
	}
	return g
}

// REIQuery builds the Boolean ECRPQ Q_R of Theorem 6.3 for the given
// regular expressions: ⋀ᵢ (xᵢ,πᵢ,yᵢ), Rᵢ(πᵢ), ⋀ᵢ πᵢ = πᵢ₊₁ (chained
// equality is equivalent to the paper's pairwise equalities). Evaluating
// it on REIGraph(sigma) decides nonemptiness of ⋂ᵢ L(Rᵢ) — the
// PSPACE-hard regular expression intersection problem.
func REIQuery(exprs []string, sigma []rune) (*ecrpq.Query, error) {
	b := ecrpq.NewBuilder()
	eq := relations.Equality(sigma)
	for i, src := range exprs {
		node, err := regex.Parse(src)
		if err != nil {
			return nil, err
		}
		b.Path(fmt.Sprintf("x%d", i), fmt.Sprintf("p%d", i), fmt.Sprintf("y%d", i))
		b.Rel(relations.FromLanguage(src, node), fmt.Sprintf("p%d", i))
		if i > 0 {
			b.Rel(eq, fmt.Sprintf("p%d", i-1), fmt.Sprintf("p%d", i))
		}
	}
	return b.Build()
}

// REIRepetitionQuery builds the CRPQ-with-repetition of Proposition 6.8:
// ⋀ᵢ (xᵢ,π,yᵢ), Rᵢ(π) — a single path variable shared by every atom.
func REIRepetitionQuery(exprs []string, sigma []rune) (*ecrpq.Query, error) {
	b := ecrpq.NewBuilder().AllowRepeatedPathVars()
	for i, src := range exprs {
		node, err := regex.Parse(src)
		if err != nil {
			return nil, err
		}
		b.Path(fmt.Sprintf("x%d", i), "p", fmt.Sprintf("y%d", i))
		b.Rel(relations.FromLanguage(src, node), "p")
	}
	return b.Build()
}

// ChainCRPQ builds the acyclic chain CRPQ of length m:
// Ans(x0, xm) ← (x0,p1,x1), …, (x(m−1),pm,xm) with language atoms drawn
// cyclically from langs.
func ChainCRPQ(m int, langs []string) (*ecrpq.Query, error) {
	b := ecrpq.NewBuilder()
	for i := 0; i < m; i++ {
		src := langs[i%len(langs)]
		node, err := regex.Parse(src)
		if err != nil {
			return nil, err
		}
		b.Path(fmt.Sprintf("x%d", i), fmt.Sprintf("p%d", i+1), fmt.Sprintf("x%d", i+1))
		b.Rel(relations.FromLanguage(src, node), fmt.Sprintf("p%d", i+1))
	}
	b.HeadNodes("x0", fmt.Sprintf("x%d", m))
	return b.Build()
}

// FlightNetwork builds the Section 8.2 itinerary workload: nCities
// cities, hub-and-spoke plus random long-haul edges, labels = airlines.
// City 0 is the origin ("London"), city nCities−1 the destination
// ("Sydney").
func FlightNetwork(r *rand.Rand, nCities int, airlines []rune) *graph.DB {
	g := graph.NewDB()
	for i := 0; i < nCities; i++ {
		g.AddNode(fmt.Sprintf("city%d", i))
	}
	// Ring so the graph is connected.
	for i := 0; i < nCities-1; i++ {
		g.AddEdge(graph.Node(i), airlines[i%len(airlines)], graph.Node(i+1))
	}
	// Random long-hauls, both directions.
	for e := 0; e < 2*nCities; e++ {
		from := graph.Node(r.Intn(nCities))
		to := graph.Node(r.Intn(nCities))
		if from != to {
			g.AddEdge(from, airlines[r.Intn(len(airlines))], to)
		}
	}
	return g
}

// labelRichLetters is the letter pool of LabelRichSigma ('_' excluded:
// it is the regex syntax for ⊥).
const labelRichLetters = "abcdefghijklmnopqrstuvwxyzABCDEF"

// LabelRichSigma returns a deterministic alphabet of k ≤ 32 distinct
// letters, starting at 'a'.
func LabelRichSigma(k int) []rune {
	if k > len(labelRichLetters) {
		panic(fmt.Sprintf("workload: LabelRichSigma supports at most %d letters", len(labelRichLetters)))
	}
	return []rune(labelRichLetters[:k])
}

// LabelRich builds a random Σ-labeled graph with n nodes, roughly
// avgDeg out-edges per node and a Zipf-skewed out-degree distribution:
// low-numbered nodes are hubs emitting most of the edges, the tail is
// sparse. Hubs are where label-directed move pruning matters most — an
// exhaustive product BFS pays (deg+1)^m move enumerations per state
// there regardless of how few edges carry the labels the query can use.
func LabelRich(r *rand.Rand, n int, sigma []rune, avgDeg float64) *graph.DB {
	g := graph.NewDB()
	for i := 0; i < n; i++ {
		g.AddNode("")
	}
	z := rand.NewZipf(r, 1.4, 4, uint64(n-1))
	edges := int(avgDeg * float64(n))
	for e := 0; e < edges; e++ {
		from := graph.Node(z.Uint64())
		to := graph.Node(r.Intn(n))
		g.AddEdge(from, sigma[r.Intn(len(sigma))], to)
	}
	return g
}

// ScaleCase is one workload of the Scale_LabelRich benchmark suite: a
// label-rich graph paired with a query and bindings.
type ScaleCase struct {
	Name  string
	Graph *graph.DB
	Query *ecrpq.Query
	Bind  map[ecrpq.NodeVar]graph.Node
}

// ScaleLabelRichCases builds the Scale_LabelRich suite: Zipf-skewed
// random graphs with n up to 256 nodes over alphabets of 8 and 32
// letters, each evaluated under
//
//   - selective — a+(p1), b+(p2), el(p1,p2): the regexes touch 2 of the
//     |Σ| labels, so the label-directed BFS skips almost every edge the
//     exhaustive (deg+1)^m enumeration would visit;
//   - chain — the same languages without the synchronizing relation
//     (two single-tape components joined relationally);
//   - permissive — a full-alphabet [..]* regex, the adversarial case
//     where every label is live and pruning cannot help.
//
// The benchmark's lr_* cases draw their graphs and queries from it;
// construction is deterministic.
func ScaleLabelRichCases() []ScaleCase {
	var out []ScaleCase
	for _, k := range []int{8, 32} {
		sigma := LabelRichSigma(k)
		env := ecrpq.Env{Sigma: sigma}
		selective := ecrpq.MustParse("Ans(x,y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2), el(p1,p2)", env)
		chain := ecrpq.MustParse("Ans(x,y) <- (x,p1,z), (z,p2,y), a+(p1), b+(p2)", env)
		permissive := ecrpq.MustParse(fmt.Sprintf("Ans(x,y) <- (x,p,y), [%s]*(p)", string(sigma)), env)
		for _, n := range []int{64, 256} {
			g := LabelRich(rand.New(rand.NewSource(int64(1000*k+n))), n, sigma, 6.0)
			bind := map[ecrpq.NodeVar]graph.Node{"x": 0}
			out = append(out,
				ScaleCase{Name: fmt.Sprintf("selective/sigma=%d/n=%d", k, n), Graph: g, Query: selective, Bind: bind},
				ScaleCase{Name: fmt.Sprintf("chain/sigma=%d/n=%d", k, n), Graph: g, Query: chain, Bind: bind},
				ScaleCase{Name: fmt.Sprintf("permissive/sigma=%d/n=%d", k, n), Graph: g, Query: permissive, Bind: bind},
			)
		}
	}
	return out
}

// MixedServing is the serving graph of the benchmark's serve_hot and
// serve_mixed workloads: a warm label-rich graph of roughly 100k edges
// over σ = 8 labels.
type MixedServing struct {
	Graph *graph.DB
	Sigma []rune
}

// mixedServingNodes sizes the serving graph: ~100k edges at avgDeg 5.
const mixedServingNodes = 20000

// NewMixedServing builds the serving graph deterministically from seed.
func NewMixedServing(seed int64) *MixedServing {
	sigma := LabelRichSigma(8)
	g := LabelRich(rand.New(rand.NewSource(seed)), mixedServingNodes, sigma, 5.0)
	return &MixedServing{Graph: g, Sigma: sigma}
}

// Env returns the parsing/compile environment of the serving query.
func (m *MixedServing) Env() ecrpq.Env { return ecrpq.Env{Sigma: m.Sigma} }
