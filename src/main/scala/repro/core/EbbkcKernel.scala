package repro.core

import repro.graph.LocalGraph
import repro.order.{Coloring, TrussDecomposition, TrussResult}

/** Prepared state for the edge-oriented branching framework EBBkC
  * (Algorithms 2–5 of the paper).
  *
  * For the truss-based and hybrid orderings this holds the truss peel ranks
  * (pi_tau); for the color-based ordering it holds a global [[ColorDag]] and
  * the graph's edges mapped into position space. One subproblem = one edge of
  * G, matching the paper's parallel scheme for EBBkC (Section 6(7)).
  */
final class EbbkcPrep(
    val g: LocalGraph,
    val k: Int,
    val cfg: EbbkcAlgo,
    val truss: TrussResult, // null iff ColorOrdering
    val cdag: ColorDag, // null unless ColorOrdering
    val cEdgeU: Array[Int], // ColorOrdering: edge endpoints in position space (u < v)
    val cEdgeV: Array[Int],
    val etT: Int // resolved early-termination threshold, 0 = off
) extends Prep {
  require(k >= 3, "k-clique listing starts at k = 3")
  override def numSubproblems: Int = g.m
  override def newKernel(): SubproblemKernel = new EbbkcKernel(this)
  override def approxBytes: Long = {
    var b = g.approxBytes
    if (truss != null) b += 4L * (3 * g.m + 1)
    if (cdag != null) b += cdag.approxBytes + 8L * g.m
    b
  }
}

object EbbkcPrep {

  def build(g: LocalGraph, k: Int, cfg: EbbkcAlgo): EbbkcPrep = cfg.ordering match {
    case TrussOrdering | HybridOrdering =>
      val truss = TrussDecomposition.run(g)
      val etT = cfg.et match {
        case EtOff      => 0
        case EtFixed(t) => t
        // The paper's rule: t = 2 for k <= tau/2, t = 3 for larger k.
        case EtAuto     => if (k <= truss.tau / 2) 2 else 3
      }
      new EbbkcPrep(g, k, cfg, truss, null, null, null, etT)
    case ColorOrdering =>
      val colors = Coloring.inverseDegeneracy(g)
      val adjLists = Array.tabulate(g.n)(g.neighborsOf)
      val ids = Array.tabulate(g.n)(identity)
      val (dag, posOf) = ColorDag.build(adjLists, colors, ids)
      val cEU = new Array[Int](g.m)
      val cEV = new Array[Int](g.m)
      var e = 0
      while (e < g.m) {
        val pu = posOf(g.edgeU(e)); val pv = posOf(g.edgeV(e))
        cEU(e) = math.min(pu, pv); cEV(e) = math.max(pu, pv)
        e += 1
      }
      val etT = cfg.et match {
        case EtOff      => 0
        case EtFixed(t) => t
        case EtAuto     => 3 // tau not computed under the pure color ordering
      }
      new EbbkcPrep(g, k, cfg, null, dag, cEU, cEV, etT)
  }
}

/** The EBBkC kernel: one instance per thread/partition.
  *
  * Truss path (EBBkC-T, Algorithm 3): branches carry an explicit
  * (vertex set, rank-filtered edge set) pair; sub-branches are formed by
  * intersecting with the globally precomputed suffix structures, realized
  * here as O(1) rank lookups on the CSR's parallel edge-id array.
  *
  * Hybrid path (EBBkC-H, Algorithm 5): the initial branch uses the truss
  * ordering; each resulting subgraph is colored and branched as a local
  * color DAG with both color pruning rules ([[BitBranch]]).
  *
  * Color path (EBBkC-C, Algorithm 4): one global color DAG; each edge
  * subproblem intersects common out-neighborhoods.
  */
final class EbbkcKernel(prep: EbbkcPrep) extends SubproblemKernel {
  private val g = prep.g
  private val k = prep.k
  private val cfg = prep.cfg
  private val etT = prep.etT
  private val rank: Array[Int] = if (prep.truss != null) prep.truss.edgeRank else null

  private val stack = new Array[Int](k)
  // Stamped scratch maps over global vertex ids (no clearing between uses).
  private val stampOf = new Array[Int](g.n)
  private val localIdx = new Array[Int](g.n)
  private var stamp = 0
  // Grow-only scratch for edge lists, copied out at their exact size.
  private var edgeBuf = new Array[Long](64)
  private val bits =
    if (cfg.ordering == HybridOrdering) new BitBranch(g.maxDegree, k, stack, cfg.rule2, etT) else null

  override def run(subId: Int, sink: CliqueSink): Unit = cfg.ordering match {
    case ColorOrdering => runColorSub(subId, sink)
    case _             => runTrussSub(subId, sink)
  }

  // ---------------------------------------------------------------- truss top

  private def runTrussSub(e: Int, sink: CliqueSink): Unit = {
    val l0 = k - 2
    // O(1) size prune: the suffix common-neighbor count of e is bounded by
    // its truss number - 2, so low-truss edges cannot host a k-clique. Near
    // omega this kills almost every top-level branch before any merge — the
    // paper's "number of promising branches" effect (Section 6.2(1)).
    if (prep.truss.trussNumber(e) - 2 < l0) return
    val u = g.edgeU(e); val v = g.edgeV(e)
    val r = rank(e)

    // VSet(e): common neighbors reachable through strictly later-ranked edges.
    val cap = math.min(g.degree(u), g.degree(v))
    val vset = new Array[Int](cap)
    var nv = 0
    var pu = g.offsets(u); val endU = g.offsets(u + 1)
    var pv = g.offsets(v); val endV = g.offsets(v + 1)
    while (pu < endU && pv < endV) {
      val a = g.adj(pu); val b = g.adj(pv)
      if (a == b) {
        if (rank(g.adjEdgeIds(pu)) > r && rank(g.adjEdgeIds(pv)) > r) { vset(nv) = a; nv += 1 }
        pu += 1; pv += 1
      } else if (a < b) pu += 1
      else pv += 1
    }
    if (nv < l0) return
    val verts = if (nv == vset.length) vset else java.util.Arrays.copyOf(vset, nv)

    // ESet(e): edges among VSet(e) ranked after e, sorted by rank.
    val edges = if (l0 >= 2) buildBranchEdges(verts, r) else Array.emptyIntArray

    stack(0) = u; stack(1) = v
    // An l0 <= 2 branch is only its base case, which recT runs as EBBkC-H would.
    if (cfg.ordering == HybridOrdering && l0 >= 3) runHybridBranch(verts, edges, l0, sink)
    else recT(verts, edges, l0, 2, sink)
  }

  /** Edges of g with both endpoints in `verts` and rank > r, sorted by rank. */
  private def buildBranchEdges(verts: Array[Int], r: Int): Array[Int] = {
    stamp += 1
    var i = 0
    while (i < verts.length) { stampOf(verts(i)) = stamp; i += 1 }
    var n = 0
    i = 0
    while (i < verts.length) {
      val w1 = verts(i)
      var p = g.offsets(w1); val end = g.offsets(w1 + 1)
      while (p < end) {
        val w2 = g.adj(p)
        if (w2 > w1 && stampOf(w2) == stamp) {
          val f = g.adjEdgeIds(p)
          val rf = rank(f)
          if (rf > r) { pushEdge(n, (rf.toLong << 32) | f); n += 1 }
        }
        p += 1
      }
      i += 1
    }
    java.util.Arrays.sort(edgeBuf, 0, n)
    edgesOut(n)
  }

  private def pushEdge(n: Int, x: Long): Unit = {
    if (n == edgeBuf.length) edgeBuf = java.util.Arrays.copyOf(edgeBuf, 2 * n)
    edgeBuf(n) = x
  }

  /** The low 32 bits of edgeBuf(0 until n): edge ids. */
  private def edgesOut(n: Int): Array[Int] = {
    val out = new Array[Int](n)
    var i = 0
    while (i < n) { out(i) = edgeBuf(i).toInt; i += 1 }
    out
  }

  // ------------------------------------------------------------ EBBkC-T body

  /** Algorithm 3's recursion: branch on every edge of the current graph in
    * pi_tau order; each sub-branch keeps only later-ranked structure.
    */
  private def recT(verts: Array[Int], edges: Array[Int], l: Int, sp: Int, sink: CliqueSink): Unit = {
    if (verts.length < l || tryEarlyTerminate(verts, edges, l, sp, sink)) return
    if (l == 1) {
      if (!sink.wantsCliques) sink.onCount(verts.length)
      else {
        var i = 0
        while (i < verts.length) { stack(sp) = verts(i); sink.onClique(stack, sp + 1); i += 1 }
      }
      return
    }
    if (l == 2) {
      if (!sink.wantsCliques) sink.onCount(edges.length)
      else {
        var i = 0
        while (i < edges.length) {
          val f = edges(i)
          stack(sp) = g.edgeU(f); stack(sp + 1) = g.edgeV(f)
          sink.onClique(stack, sp + 2)
          i += 1
        }
      }
      return
    }
    var i = 0
    while (i < edges.length) {
      val f = edges(i)
      val a = g.edgeU(f); val b = g.edgeV(f)
      val rf = rank(f)
      // V(g') = V(g) ∩ VSet(f): neighbors of both a and b via later edges.
      val next = new Array[Int](verts.length)
      var nn = 0
      var j = 0
      while (j < verts.length) {
        val w = verts(j)
        if (w != a && w != b) {
          val ea = g.edgeIdOf(a, w)
          if (ea >= 0 && rank(ea) > rf) {
            val eb = g.edgeIdOf(b, w)
            if (eb >= 0 && rank(eb) > rf) { next(nn) = w; nn += 1 }
          }
        }
        j += 1
      }
      if (nn >= l - 2) {
        val nextVerts = java.util.Arrays.copyOf(next, nn)
        val nextEdges =
          if (l - 2 >= 2) {
            // E(g') = E(g) ∩ ESet(f): later-ranked survivors within V(g').
            stamp += 1
            var q = 0
            while (q < nn) { stampOf(nextVerts(q)) = stamp; q += 1 }
            var ne = 0
            var j2 = i + 1
            while (j2 < edges.length) {
              val f2 = edges(j2)
              if (stampOf(g.edgeU(f2)) == stamp && stampOf(g.edgeV(f2)) == stamp) { pushEdge(ne, f2); ne += 1 }
              j2 += 1
            }
            edgesOut(ne)
          } else Array.emptyIntArray
        stack(sp) = a; stack(sp + 1) = b
        recT(nextVerts, nextEdges, l - 2, sp + 2, sink)
      }
      i += 1
    }
  }

  /** Early termination (Section 5) of the branch graph (verts, edges): true
    * iff it is a t-plex and was listed.
    */
  private def tryEarlyTerminate(verts: Array[Int], edges: Array[Int], l: Int, sp: Int, sink: CliqueSink): Boolean =
    etT > 0 && l >= 3 && {
      val rows = rowsFromEdgesIfPlex(verts, edges)
      rows != null && PlexListers.tryEarlyTerminate(stack, sp, verts, verts.length, rows, l, etT, sink)
    }

  /** Bitset adjacency of the branch graph (verts, edges) for the ET check,
    * or null if the branch graph is not a t-plex (degrees checked first in
    * one O(|E| + |V|) pass so the common sparse case skips the matrix).
    */
  private def rowsFromEdgesIfPlex(verts: Array[Int], edges: Array[Int]): Array[Array[Long]] = {
    val nv = verts.length
    stamp += 1
    var i = 0
    while (i < nv) { stampOf(verts(i)) = stamp; localIdx(verts(i)) = i; i += 1 }
    val degs = new Array[Int](nv)
    i = 0
    while (i < edges.length) {
      val f = edges(i)
      degs(localIdx(g.edgeU(f))) += 1
      degs(localIdx(g.edgeV(f))) += 1
      i += 1
    }
    val minDeg = nv - etT
    i = 0
    while (i < nv) { if (degs(i) < minDeg) return null; i += 1 }
    val words = (nv + 63) >>> 6
    val rows = Array.ofDim[Long](nv, words)
    i = 0
    while (i < edges.length) {
      val f = edges(i)
      val a = localIdx(g.edgeU(f)); val b = localIdx(g.edgeV(f))
      rows(a)(b >>> 6) |= 1L << (b & 63)
      rows(b)(a >>> 6) |= 1L << (a & 63)
      i += 1
    }
    rows
  }

  // ------------------------------------------------------------ EBBkC-H body

  /** Algorithm 5: color the truss-level branch graph (l0 >= 3) and hand it
    * to the word-parallel color-DAG recursion. ET is probed first so dense
    * branch graphs skip the coloring altogether.
    */
  private def runHybridBranch(verts: Array[Int], edges: Array[Int], l0: Int, sink: CliqueSink): Unit = {
    if (tryEarlyTerminate(verts, edges, l0, 2, sink)) return
    // Relabel the branch graph to dense local ids and color it.
    val s = verts.length
    stamp += 1
    var i = 0
    while (i < s) { stampOf(verts(i)) = stamp; localIdx(verts(i)) = i; i += 1 }
    val deg = new Array[Int](s)
    i = 0
    while (i < edges.length) {
      val f = edges(i)
      deg(localIdx(g.edgeU(f))) += 1; deg(localIdx(g.edgeV(f))) += 1
      i += 1
    }
    val adjL = new Array[Array[Int]](s)
    i = 0
    while (i < s) { adjL(i) = new Array[Int](deg(i)); i += 1 }
    val cursor = new Array[Int](s)
    i = 0
    while (i < edges.length) {
      val f = edges(i)
      val a = localIdx(g.edgeU(f)); val b = localIdx(g.edgeV(f))
      adjL(a)(cursor(a)) = b; cursor(a) += 1
      adjL(b)(cursor(b)) = a; cursor(b) += 1
      i += 1
    }
    val colors = Coloring.greedyLocal(adjL, Coloring.colorDescOrder(deg))
    // Branch graphs are bounded by tau, so candidate sets fit a handful of
    // words — the same data-level parallelism BitCol enjoys.
    bits.load(adjL, Coloring.colorDescOrder(colors), colors, verts, 2)
    bits.edgeStep(s, l0, 2, probeEt = false, sink)
  }

  // ------------------------------------------------------------ EBBkC-C body

  /** Algorithm 4: one edge of the global color DAG per subproblem, with both
    * pruning rules applied before descending.
    */
  private def runColorSub(e: Int, sink: CliqueSink): Unit = {
    val dag = prep.cdag
    val u = prep.cEdgeU(e); val v = prep.cEdgeV(e)
    val l0 = k - 2
    // Rule (1) at the initial branch (l = k).
    if (dag.colors(u) < k || dag.colors(v) < k - 1) return
    val c0 = IntArrays.intersectSorted(dag.out(u), dag.out(v))
    if (c0.length < l0) return
    if (cfg.rule2 && !dag.hasColors(c0, l0)) return // Rule (2)
    stack(0) = dag.toOuter(u); stack(1) = dag.toOuter(v)
    recC(c0, l0, 2, sink)
  }

  /** Branching over the global [[ColorDag]]: picks a directed edge (u -> v),
    * intersects common out-neighborhoods, and applies the two color pruning
    * rules of Section 4.3. Uniqueness follows from the DAG orientation — each
    * l-clique is generated from its two smallest positions.
    */
  private def recC(c: Array[Int], l: Int, sp: Int, sink: CliqueSink): Unit = {
    val dag = prep.cdag
    if (c.length < l || dag.tryEarlyTerminate(c, l, etT, stack, sp, sink)) return
    if (l <= 2) { dag.emitBase(c, l, stack, sp, sink); return }
    var ui = 0
    while (ui < c.length) {
      val u = c(ui)
      if (dag.colors(u) < l) return // Rule (1a); colors non-increasing along c
      val cu = IntArrays.intersectSorted(c, dag.out(u))
      var vi = 0
      while (vi < cu.length && dag.colors(cu(vi)) >= l - 1) { // Rule (1b)
        val v = cu(vi)
        val c2 = IntArrays.intersectSorted(cu, dag.out(v))
        if (c2.length >= l - 2 && (!cfg.rule2 || dag.hasColors(c2, l - 2))) {
          stack(sp) = dag.toOuter(u); stack(sp + 1) = dag.toOuter(v)
          recC(c2, l - 2, sp + 2, sink)
        }
        vi += 1
      }
      ui += 1
    }
  }
}
