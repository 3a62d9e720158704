package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.graph.{GraphDF, LocalGraph}

/** Distributed k-clique listing: subgraph-centric execution on Spark.
  *
  * The prepared graph (CSR + orderings) is broadcast; the unit of
  * distribution is a top-level subproblem of the chosen framework — one edge
  * of G for EBBkC and the EP scheme of VBBkC, one vertex for NP (exactly the
  * parallel schemes compared in Section 6(7)). Subproblem ids flow through
  * the Dataset API so the shuffle/scheduling path is Catalyst's; the deep
  * branch-and-bound recursion runs inside `mapPartitions` where dataflow
  * joins would be hopeless.
  */
object KCliqueSpark {

  def defaultPartitions(spark: SparkSession): Int =
    spark.sparkContext.defaultParallelism * 4

  /** Counts k-cliques of a canonical edge table with the given algorithm. */
  def count(spark: SparkSession, edges: DataFrame, k: Int, cfg: AlgoConfig, partitions: Int = 0): Long = {
    val localized = GraphDF.toLocal(edges)
    countLocal(spark, localized.graph, k, cfg, partitions)
  }

  /** Counts k-cliques of an in-core graph by fanning subproblems out. */
  def countLocal(spark: SparkSession, g: LocalGraph, k: Int, cfg: AlgoConfig, partitions: Int = 0): Long = {
    val prep = KClique.prepare(g, k, cfg)
    val parts = if (partitions > 0) partitions else defaultPartitions(spark)
    val bc = spark.sparkContext.broadcast(prep)
    import spark.implicits._
    val n = prep.numSubproblems
    if (n == 0) return 0L
    spark
      .range(n)
      .as[Long]
      .repartition(math.min(parts, n))
      .mapPartitions { it =>
        val kernel = bc.value.newKernel()
        val sink = new CountingSink
        it.foreach(id => kernel.run(id.toInt, sink))
        Iterator.single(sink.total)
      }
      .reduce((a: Long, b: Long) => Math.addExact(a, b))
  }

  /** Lists k-cliques as a DataFrame with columns v1 < v2 < ... < vk, mapped
    * back to the edge table's original vertex ids.
    */
  def list(spark: SparkSession, edges: DataFrame, k: Int, cfg: AlgoConfig, partitions: Int = 0): DataFrame = {
    val localized = GraphDF.toLocal(edges)
    val prep = KClique.prepare(localized.graph, k, cfg)
    val parts = if (partitions > 0) partitions else defaultPartitions(spark)
    val bc = spark.sparkContext.broadcast(prep)
    val bcIds = spark.sparkContext.broadcast(localized.origIds)
    import spark.implicits._
    val n = prep.numSubproblems
    val rows: org.apache.spark.sql.Dataset[Seq[Long]] =
      if (n == 0) spark.emptyDataset[Seq[Long]]
      else
        spark
          .range(n)
          .as[Long]
          .repartition(math.min(parts, n))
          .mapPartitions { it =>
            val kernel = bc.value.newKernel()
            val ids = bcIds.value
            val buf = scala.collection.mutable.ArrayBuffer.empty[Seq[Long]]
            val sink = new CliqueSink {
              override def wantsCliques: Boolean = true
              override def onClique(stack: Array[Int], len: Int): Unit = {
                val c = new Array[Long](len)
                var i = 0
                while (i < len) { c(i) = ids(stack(i)); i += 1 }
                java.util.Arrays.sort(c)
                buf += c.toSeq
              }
              override def onCount(c: Long): Unit =
                throw new IllegalStateException("listing run must materialize cliques")
            }
            it.foreach(id => kernel.run(id.toInt, sink))
            buf.iterator
          }
    rows.toDF("clique").selectExpr((1 to k).map(i => s"clique[${i - 1}] as v$i"): _*)
  }
}
