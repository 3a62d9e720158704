package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** DataFrame-side graph plumbing: canonical undirected edge tables, synthetic
  * edge generators (Zipf-skewed and uniform random edge tables), and
  * conversions to/from the in-core [[LocalGraph]] used by kernels.
  *
  * Canonical form everywhere: columns `src`, `dst` (long) with `src < dst`,
  * deduplicated, no self-loops — the same convention the DuckDB oracle
  * queries assume.
  */
object GraphDF {

  /** Canonicalizes an arbitrary (src, dst) edge table. */
  def canonicalize(edges: DataFrame): DataFrame = {
    val e = edges.select(col("src").cast("long").as("src"), col("dst").cast("long").as("dst"))
    e.where(col("src") =!= col("dst"))
      .select(
        least(col("src"), col("dst")).as("src"),
        greatest(col("src"), col("dst")).as("dst")
      )
      .distinct()
  }

  /** Skewed random edges: both endpoints Zipf(alpha)-distributed over vertex
    * ranks, like the hub-heavy social/web graphs of the paper's testbed.
    */
  def zipfEdges(spark: SparkSession, nVertices: Long, nEdges: Long, alpha: Double, seed: Long): DataFrame = {
    val norm = (1L to math.min(nVertices, 10000L)).map(r => 1.0 / math.pow(r, alpha)).sum
    def draw(c: org.apache.spark.sql.Column) =
      least(lit(nVertices), greatest(lit(1L), pow(lit(1.0) / (c * norm + 1e-9), lit(1.0 / alpha)).cast("long"))) - 1
    canonicalize(
      spark.range(nEdges).select(draw(rand(seed)).as("src"), draw(rand(seed + 1)).as("dst"))
    )
  }

  /** Uniform random edges over `nVertices` vertices. */
  def uniformEdges(spark: SparkSession, nVertices: Long, nEdges: Long, seed: Long): DataFrame =
    canonicalize(
      spark
        .range(nEdges)
        .select(
          (rand(seed) * nVertices).cast("long").as("src"),
          (rand(seed + 1) * nVertices).cast("long").as("dst")
        )
    )

  /** Edge table of an in-core graph. */
  def fromLocal(spark: SparkSession, g: LocalGraph): DataFrame = {
    import spark.implicits._
    spark.sparkContext
      .parallelize(0 until g.m, math.max(1, math.min(64, g.m / 10000 + 1)))
      .map(e => (g.edgeU(e).toLong, g.edgeV(e).toLong))
      .toDF("src", "dst")
  }

  /** An in-core graph plus the mapping from dense kernel ids back to the
    * original (possibly sparse) vertex ids of the edge table.
    */
  final case class Localized(graph: LocalGraph, origIds: Array[Long]) {
    def toOrig(denseId: Int): Long = origIds(denseId)
  }

  /** Collects a canonical edge table into a dense-id [[LocalGraph]].
    * Isolated vertices (absent from every edge) are dropped — they cannot
    * participate in any k-clique with k >= 2.
    */
  def toLocal(edges: DataFrame): Localized = {
    val rows = canonicalize(edges).collect()
    val ids = {
      val s = scala.collection.mutable.SortedSet.empty[Long]
      rows.foreach { r => s += r.getLong(0); s += r.getLong(1) }
      s.toArray
    }
    val idx = new scala.collection.mutable.HashMap[Long, Int]
    ids.indices.foreach(i => idx(ids(i)) = i)
    val g = LocalGraph.fromEdges(
      ids.length,
      rows.iterator.map(r => (idx(r.getLong(0)), idx(r.getLong(1))))
    )
    Localized(g, ids)
  }

  /** (n, m, maxDegree) of a canonical edge table, computed in Catalyst. */
  def stats(edges: DataFrame): (Long, Long, Long) = {
    val e = edges
    val m = e.count()
    val degs = e.select(col("src").as("v")).unionAll(e.select(col("dst").as("v")))
      .groupBy("v").agg(count(lit(1)).as("deg"))
    val n = degs.count()
    val maxDeg = if (n == 0) 0L else degs.agg(max("deg")).head().getLong(0)
    (n, m, maxDeg)
  }
}
