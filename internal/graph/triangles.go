package graph

// Sequential triangle and open-triad enumeration, the ground truths for
// the distributed enumerators of §3.2.

// Triangle is a set of three mutually adjacent vertices, stored with
// A < B < C.
type Triangle struct {
	A, B, C int32
}

// Triad is an open triad (paper §1.2/§1.5): three vertices with exactly
// two edges, Center adjacent to both Left and Right, Left < Right, and
// {Left, Right} not an edge.
type Triad struct {
	Center, Left, Right int32
}

// EnumerateTriangles calls fn for every triangle of the undirected graph
// exactly once, in lexicographic order. It uses the standard "forward"
// algorithm: for every vertex u and every higher neighbour v of u, the
// third vertices are the common neighbours of u and v above v, found by
// one merge of the two sorted adjacency rows. Enumeration stops early
// when fn returns false. It panics on directed graphs: triangle
// enumeration in the paper is an undirected problem.
func (g *Graph) EnumerateTriangles(fn func(t Triangle) bool) {
	if g.directed {
		panic("graph: EnumerateTriangles on a directed graph")
	}
	for u := 0; u < g.n; u++ {
		higher := g.Adj(u)
		higher = higher[upper(higher, int32(u)):]
		for a, v := range higher {
			us, vs := higher[a+1:], g.Adj(int(v))
			vs = vs[upper(vs, v):]
			for i, j := 0, 0; i < len(us) && j < len(vs); {
				x, y := us[i], vs[j]
				if x == y && !fn(Triangle{int32(u), v, x}) {
					return
				}
				// Which side is lower is a coin flip no predictor learns:
				// advance by two flag-set steps instead of branching on it.
				var di, dj int
				if x <= y {
					di = 1
				}
				if y <= x {
					dj = 1
				}
				i, j = i+di, j+dj
			}
		}
	}
}

// CountTriangles returns the number of triangles.
func (g *Graph) CountTriangles() int64 {
	var c int64
	g.EnumerateTriangles(func(Triangle) bool { c++; return true })
	return c
}

// Triangles materialises the full triangle list (lexicographic order).
func (g *Graph) Triangles() []Triangle {
	var out []Triangle
	g.EnumerateTriangles(func(t Triangle) bool { out = append(out, t); return true })
	return out
}

// EnumerateTriads calls fn for every open triad exactly once: for every
// centre u and every pair of neighbours v < w of u such that {v,w} is
// not an edge. Stops early when fn returns false.
func (g *Graph) EnumerateTriads(fn func(t Triad) bool) {
	if g.directed {
		panic("graph: EnumerateTriads on a directed graph")
	}
	for u := 0; u < g.n; u++ {
		adj := g.Adj(u)
		for a := 0; a < len(adj); a++ {
			for b := a + 1; b < len(adj); b++ {
				if !g.HasEdge(int(adj[a]), int(adj[b])) {
					if !fn(Triad{int32(u), adj[a], adj[b]}) {
						return
					}
				}
			}
		}
	}
}

// CountTriads returns the number of open triads.
func (g *Graph) CountTriads() int64 {
	var c int64
	g.EnumerateTriads(func(Triad) bool { c++; return true })
	return c
}

// TriangleChecksum returns an order-independent fingerprint of the
// triangle set: the XOR of a mixed hash of every triangle, plus the
// count. Distributed enumerators compare their aggregate output against
// this fingerprint so that large runs can be verified without
// materialising and sorting both triangle lists.
func TriangleChecksum(ts []Triangle) (count int64, xor uint64) {
	for _, t := range ts {
		xor ^= HashTriangle(t)
	}
	return int64(len(ts)), xor
}

// TriadChecksum returns an order-independent fingerprint (count, XOR of
// HashTriad) of a triad set, mirroring TriangleChecksum.
func TriadChecksum(ts []Triad) (count int64, xor uint64) {
	for _, t := range ts {
		xor ^= HashTriad(t)
	}
	return int64(len(ts)), xor
}

// HashTriad maps an open triad to a 64-bit fingerprint. The endpoint pair
// is canonicalised (sorted); the centre is distinguished, since
// (c; {l, r}) and (l; {c, r}) are different triads.
func HashTriad(t Triad) uint64 {
	l, r := t.Left, t.Right
	if l > r {
		l, r = r, l
	}
	x := uint64(uint32(t.Center))<<42 ^ uint64(uint32(l))<<21 ^ uint64(uint32(r)) ^ 0xabcd1234ef56789a
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// HashTriangle maps a triangle to a 64-bit fingerprint. The triangle is
// canonicalised (sorted) first, so permutations of the same vertex set
// collide by design.
func HashTriangle(t Triangle) uint64 {
	a, b, c := t.A, t.B, t.C
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	x := uint64(uint32(a))<<42 ^ uint64(uint32(b))<<21 ^ uint64(uint32(c))
	// SplitMix64 finalizer inline to avoid an import cycle with rng.
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
