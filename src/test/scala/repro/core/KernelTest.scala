package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.graph.{GraphGen, LocalGraph}

/** Cross-checks every kernel variant against the brute-force reference on a
  * shared set of small graphs — both counts and the exact clique sets.
  */
object KernelFixtures {

  val graphs: Seq[(String, LocalGraph)] = Seq(
    "K9" -> GraphGen.complete(9),
    "bipartite5x5" -> GraphGen.completeBipartite(5, 5),
    "gnp40" -> GraphGen.gnp(40, 0.3, 1),
    "gnp25dense" -> GraphGen.gnp(25, 0.5, 2),
    "planted" -> GraphGen.plantCliques(GraphGen.gnm(60, 150, 3), Seq(0 until 9, 20 until 27)),
    "powerlaw" -> GraphGen.powerLaw(120, 500, 1.5, 4),
    "twoComponents" -> GraphGen.disjointUnion(GraphGen.complete(7), GraphGen.gnp(30, 0.35, 5)),
    "sparse" -> GraphGen.gnm(80, 120, 6),
    "cycle12" -> GraphGen.cycle(12),
    "counterexample" -> LocalGraph.fromEdges(4, Seq((0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
  )

  val ks: Seq[Int] = 3 to 6

  /** Graphs above 64 vertices, so branch graphs span two bitset words, with
    * closed-form counts: C(70, k) for K70, and C(35, k) * 2^k for the
    * cocktail-party graph CP(35) = K70 minus a perfect matching (a 2-plex).
    */
  val wideGraphs: Seq[(String, LocalGraph, Map[Int, Long])] = Seq(
    ("K70", GraphGen.complete(70), Map(3 -> 54740L, 4 -> 916895L, 5 -> 12103014L)),
    ("cocktailParty35", GraphGen.twoPlexWithPairs(70, 35), Map(3 -> 52360L, 4 -> 837760L, 5 -> 10388224L))
  )

  /** Every algorithm instance exercised by the correctness sweep. */
  val algos: Seq[AlgoConfig] = Seq(
    Algos.Degen,
    Algos.DDegree,
    Algos.DDegCol,
    Algos.SDegree,
    Algos.BitCol,
    Algos.DDegColPlus,
    Algos.BitColPlus,
    Algos.DDegCol.copy(edgeParallel = true),
    Algos.BitCol.copy(edgeParallel = true),
    VbbkcAlgo(SubColor, bitset = true, rule2 = true, et = EtFixed(3)),
    VbbkcAlgo(SubDegree, et = EtFixed(2)),
    EbbkcAlgo(TrussOrdering),
    EbbkcAlgo(TrussOrdering, et = EtFixed(2)),
    EbbkcAlgo(TrussOrdering, et = EtFixed(4)),
    EbbkcAlgo(ColorOrdering, rule2 = true),
    EbbkcAlgo(ColorOrdering, rule2 = false),
    EbbkcAlgo(ColorOrdering, rule2 = true, et = EtFixed(3)),
    EbbkcAlgo(HybridOrdering, rule2 = true),
    EbbkcAlgo(HybridOrdering, rule2 = false),
    EbbkcAlgo(HybridOrdering, rule2 = true, et = EtFixed(1)),
    EbbkcAlgo(HybridOrdering, rule2 = true, et = EtFixed(2)),
    EbbkcAlgo(HybridOrdering, rule2 = true, et = EtFixed(3)),
    EbbkcAlgo(HybridOrdering, rule2 = true, et = EtFixed(5)),
    EbbkcAlgo(HybridOrdering, rule2 = true, et = EtAuto)
  )

  lazy val expected: Map[(String, Int), Set[Seq[Int]]] = (for {
    (name, g) <- graphs
    k <- ks
  } yield (name, k) -> BruteForce.list(g, k)).toMap
}

class KernelCountTest extends AnyFunSuite {
  import KernelFixtures._

  for (cfg <- algos; (name, g) <- graphs; k <- ks)
    test(s"${cfg.name} count on $name, k=$k") {
      assert(KClique.count(g, k, cfg) == expected((name, k)).size.toLong)
    }

  for (cfg <- algos; (name, g, counts) <- wideGraphs; (k, want) <- counts.toSeq.sorted)
    test(s"${cfg.name} count on $name, k=$k") {
      assert(KClique.count(g, k, cfg) == want)
    }
}

class KernelListTest extends AnyFunSuite {
  import KernelFixtures._

  // Listing mode forces full enumeration through every ET path too; check
  // the exact clique sets for a representative subset of algorithms.
  private val listAlgos: Seq[AlgoConfig] = Seq(
    Algos.Degen,
    Algos.BitCol,
    Algos.DDegCol.copy(edgeParallel = true),
    VbbkcAlgo(SubColor, bitset = true, rule2 = true, et = EtFixed(3)),
    EbbkcAlgo(TrussOrdering),
    EbbkcAlgo(ColorOrdering, rule2 = true),
    EbbkcAlgo(HybridOrdering, rule2 = true),
    EbbkcAlgo(HybridOrdering, rule2 = true, et = EtFixed(2)),
    EbbkcAlgo(HybridOrdering, rule2 = true, et = EtFixed(4))
  )

  private def assertLists(g: LocalGraph, k: Int, cfg: AlgoConfig, want: Set[Seq[Int]]): Unit = {
    val listed = KClique.list(g, k, cfg).map(_.toSeq)
    val got = listed.toSet
    assert(got.size == listed.size, "duplicate cliques emitted")
    assert(got == want,
      s"missing=${(want -- got).take(3)} extra=${(got -- want).take(3)}")
  }

  for (cfg <- listAlgos; (name, g) <- graphs; k <- ks)
    test(s"${cfg.name} lists exact clique set on $name, k=$k") {
      assertLists(g, k, cfg, expected((name, k)))
    }

  for (cfg <- listAlgos; (name, g, _) <- wideGraphs)
    test(s"${cfg.name} lists exact clique set on $name, k=3") {
      assertLists(g, 3, cfg, BruteForce.list(g, 3))
    }
}

class KernelEdgeCaseTest extends AnyFunSuite {

  test("empty graph yields zero cliques") {
    for (cfg <- Seq[AlgoConfig](Algos.EBBkCET, Algos.BitCol, Algos.Degen))
      assert(KClique.count(LocalGraph.empty(10), 4, cfg) == 0L)
  }

  test("k larger than omega yields zero") {
    val g = GraphGen.gnp(30, 0.2, 1)
    val omega = repro.order.MaxClique.omega(g)
    for (cfg <- Seq[AlgoConfig](Algos.EBBkCET, Algos.EBBkC, Algos.BitCol))
      assert(KClique.count(g, omega + 1, cfg) == 0L)
  }

  test("k equal to omega counts the maximum cliques") {
    val g = GraphGen.plantCliques(GraphGen.gnm(100, 250, 2), Seq(0 until 12))
    assert(KClique.count(g, 12, Algos.EBBkCET) == 1L)
    assert(KClique.count(g, 12, Algos.BitCol) == 1L)
  }

  test("complete graph counts are binomials across algorithms and k") {
    val g = GraphGen.complete(14)
    for (k <- 3 to 12; cfg <- Seq[AlgoConfig](Algos.EBBkCET, Algos.EBBkC, Algos.BitCol, Algos.DDegree))
      assert(KClique.count(g, k, cfg) == Combinatorics.binomial(14, k), s"k=$k ${cfg.name}")
  }

  private val etAlgos = Seq[AlgoConfig](Algos.EBBkCET, Algos.EBBkCT_ET, Algos.EBBkCC_ET, Algos.VBBkCET)

  test("counts that fit in a Long are exact: K64 at k=32") {
    val g = GraphGen.complete(64)
    for (cfg <- etAlgos)
      assert(KClique.count(g, 32, cfg) == 1832624140942590534L, cfg.name)
  }

  test("counts past Long.MaxValue throw: K70 at k=30 and k=35") {
    val g = GraphGen.complete(70)
    for (k <- Seq(30, 35); cfg <- etAlgos)
      intercept[ArithmeticException](KClique.count(g, k, cfg))
  }

  test("k = 3 equals triangle count from truss supports") {
    val g = GraphGen.powerLaw(200, 900, 1.5, 8)
    val triangles = repro.order.TrussDecomposition.triangleCount(g)
    for (cfg <- Seq[AlgoConfig](Algos.EBBkCET, Algos.Degen, Algos.SDegree))
      assert(KClique.count(g, 3, cfg) == triangles)
  }

  test("k below 3 is rejected") {
    val g = GraphGen.complete(5)
    intercept[IllegalArgumentException](KClique.count(g, 2, Algos.EBBkCET))
    intercept[IllegalArgumentException](KClique.count(g, 2, Algos.BitCol))
  }

  test("disjoint union counts add up") {
    val a = GraphGen.gnp(25, 0.4, 3)
    val b = GraphGen.gnp(30, 0.35, 4)
    val u = GraphGen.disjointUnion(a, b)
    for (k <- 3 to 5)
      assert(
        KClique.count(u, k, Algos.EBBkCET) ==
          KClique.count(a, k, Algos.EBBkCET) + KClique.count(b, k, Algos.EBBkCET))
  }

  test("relabeling leaves counts invariant") {
    val g = GraphGen.gnp(35, 0.3, 5)
    val perm = new scala.util.Random(7).shuffle((0 until g.n).toVector).toArray
    val h = g.relabel(perm)
    for (k <- 3 to 5; cfg <- Seq[AlgoConfig](Algos.EBBkCET, Algos.BitCol))
      assert(KClique.count(g, k, cfg) == KClique.count(h, k, cfg))
  }

  test("appendix-B counterexample graph: 3-cliques via truss ordering") {
    // The 4-vertex, 5-edge graph of Figure 13; its two triangles must be
    // found regardless of which branches a vertex ordering could not form.
    val g = LocalGraph.fromEdges(4, Seq((0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
    for (cfg <- KernelFixtures.algos)
      assert(KClique.count(g, 3, cfg) == 2L, cfg.name)
  }

  test("paper running example: 4-cliques under color pruning (Figure 2)") {
    // 8-vertex graph shaped like Figure 2(a): two K4s sharing structure.
    val g = GraphGen.plantCliques(LocalGraph.empty(8), Seq(Seq(0, 1, 2, 3), Seq(4, 5, 6, 7), Seq(3, 4)))
    assert(KClique.count(g, 4, EbbkcAlgo(ColorOrdering, rule2 = true)) == 2L)
    assert(KClique.count(g, 4, EbbkcAlgo(ColorOrdering, rule2 = false)) == 2L)
  }
}
