package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.graph.{GraphDF, GraphGen}
import repro.order.{CoreDF, CoreDecomposition, TrussDF, TrussDecomposition}

/** Pure-Catalyst clique listing vs the DuckDB oracle and the kernels. */
class CliqueDFTest extends SparkSpec {
  import spark.implicits._

  private def fixture = GraphGen.plantCliques(GraphGen.gnm(100, 400, seed = 21), Seq(0 until 7))

  test("k=3 listing matches DuckDB row for row (as sorted triples)") {
    val edges = GraphDF.fromLocal(spark, fixture)
    val got = CliqueDF.listCliques(edges, 3)
      .select(
        least($"v1", $"v2", $"v3").as("a"),
        greatest(least($"v1", $"v2"), least(greatest($"v1", $"v2"), $"v3")).as("b"),
        greatest($"v1", $"v2", $"v3").as("c")
      )
    Oracle.assertEquivalent(
      got,
      """SELECT CAST(ab.src AS BIGINT) AS a, CAST(ab.dst AS BIGINT) AS b, CAST(ac.dst AS BIGINT) AS c
        |FROM e ab
        |JOIN e ac ON ab.src = ac.src AND CAST(ab.dst AS BIGINT) < CAST(ac.dst AS BIGINT)
        |JOIN e bc ON bc.src = ab.dst AND bc.dst = ac.dst""".stripMargin,
      "e" -> edges
    )
  }

  test("k=4 count matches DuckDB") {
    val edges = GraphDF.fromLocal(spark, fixture)
    val cnt = Seq(CliqueDF.countCliques(edges, 4)).toDF("cnt")
    Oracle.assertEquivalent(
      cnt,
      """SELECT count(*) AS cnt
        |FROM e e12
        |JOIN e e13 ON e13.src = e12.src AND CAST(e13.dst AS BIGINT) > CAST(e12.dst AS BIGINT)
        |JOIN e e14 ON e14.src = e12.src AND CAST(e14.dst AS BIGINT) > CAST(e13.dst AS BIGINT)
        |JOIN e e23 ON e23.src = e12.dst AND e23.dst = e13.dst
        |JOIN e e24 ON e24.src = e12.dst AND e24.dst = e14.dst
        |JOIN e e34 ON e34.src = e13.dst AND e34.dst = e14.dst""".stripMargin,
      "e" -> edges
    )
  }

  for (k <- 3 to 6)
    test(s"CliqueDF count equals kernel count, k=$k") {
      val g = fixture
      val edges = GraphDF.fromLocal(spark, g)
      assert(CliqueDF.countCliques(edges, k) == KClique.count(g, k, Algos.EBBkCET))
    }

  test("CliqueDF rows are valid distinct cliques") {
    val g = GraphGen.gnp(30, 0.4, seed = 22)
    val edges = GraphDF.fromLocal(spark, g)
    val rows = CliqueDF.listCliques(edges, 4).as[(Long, Long, Long, Long)].collect()
      .map { case (a, b, c, d) => Seq(a, b, c, d).map(_.toInt).sorted }
    assert(rows.distinct.length == rows.length)
    for (cl <- rows; i <- cl.indices; j <- i + 1 until cl.length)
      assert(g.hasEdge(cl(i), cl(j)), s"$cl not a clique")
  }
}

/** Distributed core/truss machinery vs the exact local algorithms.
  *
  * The iterative peels launch many tiny Catalyst jobs, so the suite runs
  * them at low shuffle parallelism — the default 64 partitions add minutes
  * of pure scheduling overhead on toy graphs without touching semantics.
  */
class TrussCoreDFTest extends SparkSpec {
  private var savedPartitions: String = _

  override def beforeAll(): Unit = {
    super.beforeAll()
    savedPartitions = spark.conf.get("spark.sql.shuffle.partitions")
    spark.conf.set("spark.sql.shuffle.partitions", "4")
  }

  override def afterAll(): Unit = {
    spark.conf.set("spark.sql.shuffle.partitions", savedPartitions)
    super.afterAll()
  }

  test("distributed degeneracy equals local on assorted graphs") {
    for (g <- Seq(
        GraphGen.complete(8),
        GraphGen.completeBipartite(4, 6),
        GraphGen.plantCliques(GraphGen.randomTree(80, 32), Seq(0 until 8)))) {
      val edges = GraphDF.fromLocal(spark, g)
      assert(CoreDF.degeneracy(edges) == CoreDecomposition.run(g).degeneracy)
    }
  }

  test("k-core edges match the local coreness fixpoint") {
    val g = GraphGen.gnp(60, 0.25, 33)
    val core = CoreDecomposition.run(g)
    val edges = GraphDF.fromLocal(spark, g)
    for (k <- Seq(1, core.degeneracy / 2, core.degeneracy).distinct) {
      val dfEdges = CoreDF.kCore(edges, k).collect()
        .map(r => (r.getLong(0).toInt, r.getLong(1).toInt)).toSet
      val localEdges = g.edges.filter { case (u, v) => core.coreness(u) >= k && core.coreness(v) >= k }.toSet
      assert(dfEdges == localEdges, s"k=$k")
    }
  }

  test("distributed tau equals local tau") {
    for (g <- Seq(
        GraphGen.complete(7),
        GraphGen.plantCliques(GraphGen.gnm(70, 200, 35), Seq(0 until 9)))) {
      val edges = GraphDF.fromLocal(spark, g)
      assert(TrussDF.tau(edges) == TrussDecomposition.run(g).tau)
    }
  }

  test("k-truss of a planted clique retains exactly the clique") {
    val g = GraphGen.plantCliques(GraphGen.randomTree(60, 36), Seq(0 until 10))
    val edges = GraphDF.fromLocal(spark, g)
    val truss = TrussDF.kTruss(edges, 10).collect()
      .map(r => (r.getLong(0).toInt, r.getLong(1).toInt)).toSet
    assert(truss == (for (u <- 0 until 10; v <- u + 1 until 10) yield (u, v)).toSet)
  }
}

/** The distributed drivers vs serial kernels, on DataFrame-native graphs. */
class KCliqueSparkTest extends SparkSpec {

  private lazy val localFixture =
    GraphGen.plantCliques(GraphGen.powerLaw(400, 2000, 1.5, seed = 41), Seq(0 until 10))

  for (k <- 3 to 6; cfg <- Seq[AlgoConfig](
      Algos.EBBkCET, Algos.EBBkC, Algos.EBBkCT_ET,
      Algos.BitCol, Algos.DDegCol,
      Algos.VBBkCET.copy(edgeParallel = true),
      Algos.VBBkCET.copy(edgeParallel = false)))
    test(s"distributed count equals serial: ${cfg.name}, k=$k") {
      val g = localFixture
      val serial = KClique.count(g, k, cfg)
      val dist = KCliqueSpark.countLocal(spark, g, k, cfg, partitions = 13)
      assert(dist == serial)
    }

  test("distributed count on a Spark-generated zipf graph matches brute force") {
    val edges = GraphDF.zipfEdges(spark, 200, 900, 1.4, seed = 42)
    val g = GraphDF.toLocal(edges).graph
    for (k <- 3 to 5)
      assert(KCliqueSpark.count(spark, edges, k, Algos.EBBkCET) == BruteForce.count(g, k))
  }

  test("distributed count past Long.MaxValue fails loudly: K70 at k=30 and k=35") {
    val g = GraphGen.complete(70)
    for (k <- Seq(30, 35)) {
      val e = intercept[Exception](KCliqueSpark.countLocal(spark, g, k, Algos.EBBkCET))
      val causes = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null)
      assert(causes.exists(c => c.isInstanceOf[ArithmeticException] ||
        String.valueOf(c.getMessage).contains("java.lang.ArithmeticException")), e)
    }
  }

  test("listing DataFrame has sorted distinct rows mapping to valid cliques") {
    val g = GraphGen.gnp(40, 0.35, seed = 43)
    val edges = GraphDF.fromLocal(spark, g)
    val df = KCliqueSpark.list(spark, edges, 4, Algos.EBBkCET, partitions = 7)
    val rows = df.collect().map(r => (0 until 4).map(i => r.getLong(i).toInt))
    assert(rows.forall(c => c == c.sorted))
    assert(rows.distinct.length == rows.length)
    for (cl <- rows; i <- cl.indices; j <- i + 1 until cl.length) assert(g.hasEdge(cl(i), cl(j)))
    assert(rows.length.toLong == BruteForce.count(g, 4))
  }

  test("listing preserves original (sparse) vertex ids") {
    import spark.implicits._
    val edges = Seq((100L, 200L), (100L, 300L), (200L, 300L)).toDF("src", "dst")
    val df = KCliqueSpark.list(spark, edges, 3, Algos.EBBkCET)
    assert(df.collect().map(r => (r.getLong(0), r.getLong(1), r.getLong(2))).toSeq ==
      Seq((100L, 200L, 300L)))
  }

  test("empty edge table yields zero") {
    import spark.implicits._
    val edges = Seq.empty[(Long, Long)].toDF("src", "dst")
    assert(KCliqueSpark.count(spark, edges, 4, Algos.EBBkCET) == 0L)
  }

  test("NP and EP schemes agree for VBBkC") {
    val g = localFixture
    for (k <- Seq(4, 6)) {
      val np = KCliqueSpark.countLocal(spark, g, k, Algos.BitCol.copy(edgeParallel = false))
      val ep = KCliqueSpark.countLocal(spark, g, k, Algos.BitCol.copy(edgeParallel = true))
      assert(np == ep)
    }
  }

  test("distributed count equals DuckDB 4-clique count on a small graph") {
    val g = GraphGen.gnp(35, 0.35, seed = 44)
    val edges = GraphDF.fromLocal(spark, g)
    import spark.implicits._
    val cnt = Seq(KCliqueSpark.count(spark, edges, 4, Algos.EBBkCET)).toDF("cnt")
    Oracle.assertEquivalent(
      cnt,
      """SELECT count(*) AS cnt
        |FROM e e12
        |JOIN e e13 ON e13.src = e12.src AND CAST(e13.dst AS BIGINT) > CAST(e12.dst AS BIGINT)
        |JOIN e e14 ON e14.src = e12.src AND CAST(e14.dst AS BIGINT) > CAST(e13.dst AS BIGINT)
        |JOIN e e23 ON e23.src = e12.dst AND e23.dst = e13.dst
        |JOIN e e24 ON e24.src = e12.dst AND e24.dst = e14.dst
        |JOIN e e34 ON e34.src = e13.dst AND e34.dst = e14.dst""".stripMargin,
      "e" -> edges
    )
  }
}
