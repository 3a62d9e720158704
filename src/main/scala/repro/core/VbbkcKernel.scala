package repro.core

import repro.graph.LocalGraph
import repro.order.{Coloring, CoreDecomposition}

/** Prepared state for the vertex-oriented baselines (Section 3 / 7).
  *
  * The graph is relabeled into degeneracy-rank space, so a vertex's
  * out-neighbors (later peel positions) are simply the suffix of its sorted
  * adjacency list and every out-degree is bounded by delta. One subproblem is
  * a vertex (NP scheme) or a DAG edge (EP scheme).
  */
final class VbbkcPrep(
    val gRel: LocalGraph,
    val toGlobal: Array[Int], // rank-space id -> original vertex id
    val coreness: Array[Int], // rank-space coreness (bounds out-degree)
    val k: Int,
    val cfg: VbbkcAlgo,
    val etT: Int
) extends Prep {
  require(k >= 3, "k-clique listing starts at k = 3")
  override def numSubproblems: Int = if (cfg.edgeParallel) gRel.m else gRel.n
  override def newKernel(): SubproblemKernel = new VbbkcKernel(this)
  override def approxBytes: Long = gRel.approxBytes + 4L * gRel.n
}

object VbbkcPrep {
  def build(g: LocalGraph, k: Int, cfg: VbbkcAlgo): VbbkcPrep = {
    val core = CoreDecomposition.run(g)
    val gRel = g.relabel(core.rank)
    val coreness = Array.tabulate(g.n)(r => core.coreness(core.order(r)))
    val etT = cfg.et match {
      case EtOff      => 0
      case EtFixed(t) => t
      case EtAuto     => 3
    }
    new VbbkcPrep(gRel, core.order, coreness, k, cfg, etT)
  }
}

/** VBBkC kernel covering Degen, DDegree, DDegCol and their bitset twins
  * SDegree / BitCol (the JVM stand-ins for the SIMD implementations), plus
  * the adapted Rule (2) ("+" variants) and early termination.
  *
  * Per subproblem it materializes the induced subgraph on the top vertex's
  * out-neighborhood (at most delta vertices), reorders it by the configured
  * sub-strategy, and recurses one vertex at a time (Algorithm 1).
  */
final class VbbkcKernel(prep: VbbkcPrep) extends SubproblemKernel {
  private val g = prep.gRel
  private val k = prep.k
  private val cfg = prep.cfg
  private val etT = prep.etT
  private val useColor = cfg.sub == SubColor
  private val rule2 = cfg.rule2 && useColor

  private val stack = new Array[Int](k)
  private val stampOf = new Array[Int](g.n)
  private val localIdx = new Array[Int](g.n)
  private var stamp = 0
  private val bits = if (cfg.bitset) new BitBranch(g.maxDegree, k, stack, rule2, etT) else null

  override def run(subId: Int, sink: CliqueSink): Unit =
    if (cfg.edgeParallel) runEdgeSub(subId, sink) else runVertexSub(subId, sink)

  /** Rank-space out-neighbors of v (suffix of the sorted adjacency list). */
  private def outNeighbors(v: Int): Array[Int] = {
    var lo = g.offsets(v)
    val hi = g.offsets(v + 1)
    while (lo < hi && g.adj(lo) <= v) lo += 1
    java.util.Arrays.copyOfRange(g.adj, lo, hi)
  }

  private def runVertexSub(v: Int, sink: CliqueSink): Unit = {
    // O(1) prune: out-degree in the degeneracy DAG is bounded by coreness.
    if (prep.coreness(v) < k - 1) return
    val cands = outNeighbors(v)
    if (cands.length < k - 1) return
    stack(0) = prep.toGlobal(v)
    processSub(cands, k - 1, 1, sink)
  }

  /** EP scheme: the first two branching levels are merged into one edge
    * subproblem over the global degeneracy DAG (Section 6(7)).
    */
  private def runEdgeSub(e: Int, sink: CliqueSink): Unit = {
    val u = g.edgeU(e); val v = g.edgeV(e) // u < v in rank space
    val cands = IntArrays.intersectSorted(outNeighbors(u), outNeighbors(v))
    if (cands.length < k - 2) return
    stack(0) = prep.toGlobal(u); stack(1) = prep.toGlobal(v)
    processSub(cands, k - 2, 2, sink)
  }

  private def processSub(cands: Array[Int], l0: Int, sp: Int, sink: CliqueSink): Unit = {
    if (l0 == 1) { ColorDag.emitEach(cands, prep.toGlobal, stack, sp, sink); return }
    // Induced subgraph on the candidate set, in dense local ids.
    val s = cands.length
    stamp += 1
    var i = 0
    while (i < s) { stampOf(cands(i)) = stamp; localIdx(cands(i)) = i; i += 1 }
    val adjL = new Array[Array[Int]](s)
    val degs = new Array[Int](s)
    val outer = new Array[Int](s)
    i = 0
    while (i < s) {
      val a = cands(i)
      val buf = new Array[Int](math.min(s, g.degree(a)))
      var nb = 0
      var p = g.offsets(a); val end = g.offsets(a + 1)
      while (p < end) {
        val w = g.adj(p)
        if (stampOf(w) == stamp) { buf(nb) = localIdx(w); nb += 1 }
        p += 1
      }
      adjL(i) = java.util.Arrays.copyOf(buf, nb)
      degs(i) = nb
      outer(i) = prep.toGlobal(a)
      i += 1
    }
    // Sub-strategy ordering of the local subgraph: keys descending, ties by
    // id, so equal keys keep the degeneracy order.
    val keys = cfg.sub match {
      case SubNatural => new Array[Int](s)
      case SubDegree  => degs
      case SubColor   => Coloring.greedyLocal(adjL, Coloring.colorDescOrder(degs))
    }
    if (cfg.bitset) {
      bits.load(adjL, Coloring.colorDescOrder(keys), if (useColor) keys else null, outer, sp)
      bits.vertexStep(s, l0, sp, sink)
    } else {
      val (dag, _) = ColorDag.build(adjL, keys, outer)
      recArr(dag, Array.tabulate(s)(identity), l0, sp, sink)
    }
  }

  /** Algorithm 1 over sorted candidate positions of the subproblem's DAG. */
  private def recArr(dag: ColorDag, c: Array[Int], l: Int, sp: Int, sink: CliqueSink): Unit = {
    if (c.length < l || dag.tryEarlyTerminate(c, l, etT, stack, sp, sink)) return
    if (l <= 2) { dag.emitBase(c, l, stack, sp, sink); return }
    var i = 0
    while (i < c.length) {
      val u = c(i)
      if (useColor && dag.colors(u) < l) return // color pruning; colors non-increasing
      val cu = IntArrays.intersectSorted(c, dag.out(u))
      if (cu.length >= l - 1 && (!rule2 || dag.hasColors(cu, l - 1))) {
        stack(sp) = dag.toOuter(u)
        recArr(dag, cu, l - 1, sp + 1, sink)
      }
      i += 1
    }
  }
}
