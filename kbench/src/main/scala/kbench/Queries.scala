package kbench

import java.lang.management.ManagementFactory

import scala.util.control.NonFatal

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{CliqueSink, CountingSink, KClique, KCliqueSpark, Prep}
import repro.graph.{GraphDF, LocalGraph, SynthGraphs}
import repro.order.{CoreDecomposition, TrussDecomposition}

/** A workload's generated input. `graph` is the seed-permuted stand-in;
  * Spark workloads also hold it as a cached edge DataFrame of permuted ids.
  * `canon` maps a permuted id back to the stand-in's id, for the checksum.
  */
final class Input(
    val w: Workload,
    val graph: LocalGraph,
    val canon: Array[Int],
    val spark: SparkSession,
    val edges: DataFrame
)

object Setup {

  /** Builds the input, starting Spark first for Spark workloads. */
  def run(w: Workload, seed: Long, cores: Int, workDir: String, tracer: Option[Tracer]): Input = {
    def step[A](name: String)(body: => A): A = tracer match {
      case Some(t) => t.span(name, 0)(body)
      case None    => body
    }
    step("setup") {
      val spark = if (w.mode == Serial) null else step("setup.spark_start")(SparkTasks.start(cores, workDir))
      val base = step("setup.generate")(SynthGraphs(w.graph))
      val perm = step("setup.permute")(Inputs.permutation(base.n, seed))
      val g = step("setup.relabel")(base.relabel(perm))
      val canon = step("setup.reference")(Inputs.inverse(perm))
      val edges =
        if (spark == null) null
        else step("setup.edge_table") {
          val df = GraphDF.fromLocal(spark, g).cache()
          df.count()
          df
        }
      new Input(w, g, canon, spark, edges)
    }
  }

  def teardown(in: Input): Unit = if (in.spark != null) in.spark.stop()
}

/** Bytes allocated by JVM threads, from `ThreadMXBean`. */
object Alloc {
  private val mx = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  def snapshot(): Map[Long, Long] = {
    val ids = mx.getAllThreadIds
    val bytes = mx.getThreadAllocatedBytes(ids)
    ids.indices.iterator.filter(i => bytes(i) >= 0).map(i => ids(i) -> bytes(i)).toMap
  }

  /** Bytes allocated since `before`, summed over threads alive now. */
  def since(before: Map[Long, Long]): Long =
    snapshot().iterator.map { case (id, b) => b - before.getOrElse(id, 0L) }.sum

  def currentThread(): Long = mx.getCurrentThreadAllocatedBytes
}

/** A counting sink that asks for every clique, like the listing path. */
final class ListingCountSink extends CliqueSink {
  var total: Long = 0L
  override def wantsCliques: Boolean = true
  override def onClique(stack: Array[Int], len: Int): Unit = total += 1
  override def onCount(c: Long): Unit =
    throw new IllegalStateException("listing run must materialize cliques")
}

/** Per-subproblem account of one kernel pass. */
final case class KernelRun(total: Long, subNs: Array[Long], productive: Int, barrenNs: Long, allocBytes: Long)

object Queries {

  /** One untraced query as a user makes it; None when the answer is exact. */
  def run(in: Input): Option[String] = guarded {
    val w = in.w
    w.mode match {
      case Serial     => Check.count(w.cliques, KClique.count(in.graph, w.k, w.algo))
      case SparkCount => Check.count(w.cliques, KCliqueSpark.count(in.spark, in.edges, w.k, w.algo))
      case SparkList =>
        val (rows, sum) = consume(KCliqueSpark.list(in.spark, in.edges, w.k, w.algo), in.canon)
        Check.listing(w, rows, sum)
    }
  }

  def guarded(body: => Option[String]): Option[String] =
    try body
    catch { case NonFatal(e) => Some(s"threw ${e.getClass.getSimpleName}: ${e.getMessage}") }

  /** Row count and [[Checksum]] of a clique DataFrame whose ids `canon` maps back. */
  def consume(df: DataFrame, canon: Array[Int]): (Long, Long) = {
    val k = df.columns.length
    df.rdd
      .mapPartitions { rows =>
        val c = new Array[Int](k)
        var n = 0L
        var h = 0L
        rows.foreach { r =>
          var i = 0
          while (i < k) { c(i) = canon(r.getLong(i).toInt); i += 1 }
          java.util.Arrays.sort(c)
          h += Checksum.clique(c)
          n += 1
        }
        Iterator.single((n, h))
      }
      .reduce((a, b) => (a._1 + b._1, a._2 + b._2))
  }

  /** The kernel loop of `KClique.count`, timing every subproblem. */
  def kernel(prep: Prep, listing: Boolean): KernelRun = {
    val a0 = Alloc.currentThread()
    val kernel = prep.newKernel()
    val n = prep.numSubproblems
    val subNs = new Array[Long](n)
    var productive = 0
    var barren = 0L
    def loop(sink: CliqueSink, total: => Long): Long = {
      var id = 0
      while (id < n) {
        val before = total
        val t0 = System.nanoTime()
        kernel.run(id, sink)
        val dt = System.nanoTime() - t0
        subNs(id) = dt
        if (total != before) productive += 1 else barren += dt
        id += 1
      }
      total
    }
    val total =
      if (listing) { val s = new ListingCountSink; loop(s, s.total) }
      else { val s = new CountingSink; loop(s, s.total) }
    KernelRun(total, subNs, productive, barren, Alloc.currentThread() - a0)
  }

  /** Layer metrics of one kernel pass over `prep`. */
  def kernelMetrics(prep: Prep, kr: KernelRun, kernelSpan: Span): Map[String, Double] = {
    val subMs = kr.subNs.iterator.map(_ / 1e6).toSeq
    val n = kr.subNs.length
    Map(
      "core.prep_bytes" -> prep.approxBytes.toDouble,
      "core.kernel_s" -> kernelSpan.seconds,
      "core.kernel_alloc_mb" -> kr.allocBytes / 1e6,
      "core.subproblems" -> n.toDouble,
      "core.productive" -> kr.productive.toDouble,
      "core.productive_ratio" -> (if (n == 0) 0.0 else kr.productive.toDouble / n),
      "core.barren_s" -> kr.barrenNs / 1e9,
      "core.sub_p99_ms" -> Stats.percentile(subMs, 0.99).getOrElse(if (n == 0) 0.0 else subMs.max),
      "core.sub_max_ms" -> (if (n == 0) 0.0 else subMs.max)
    )
  }

  /** Java-serialized size of `o`, the form Spark broadcasts by default. */
  def serializedBytes(o: AnyRef): Long = {
    var count = 0L
    val sink = new java.io.OutputStream {
      override def write(b: Int): Unit = count += 1
      override def write(b: Array[Byte], off: Int, len: Int): Unit = count += len
    }
    val out = new java.io.ObjectOutputStream(sink)
    out.writeObject(o)
    out.close()
    count
  }

  /** Every per-layer metric, zero for layers this query does not pass through. */
  val layerMetricNames: Seq[String] = Seq(
    "graph.to_local_s", "order.truss_s", "order.core_s", "core.prep_s", "core.prep_bytes",
    "core.kernel_s", "core.kernel_alloc_mb", "core.subproblems", "core.productive",
    "core.productive_ratio", "core.barren_s", "core.sub_p99_ms", "core.sub_max_ms",
    "spark.broadcast_s", "spark.broadcast_bytes", "spark.tasks", "spark.task_median_s",
    "spark.task_max_s", "spark.task_skew", "spark.efficiency", "spark.task_gc_s", "spark.rows",
    "trace.query_s"
  )

  /** One traced query plus its probes. Returns the failure, if any, and the
    * query's layer metrics.
    */
  def traced(in: Input, q: Int, t: Tracer, tasks: TaskLog, cores: Int): (Option[String], Map[String, Double]) = {
    val w = in.w
    var m = Map.empty[String, Double]
    var g: LocalGraph = in.graph
    var prep: Prep = null
    var kr: KernelRun = null
    if (tasks != null) tasks.drain()

    val failure = guarded(t.span("query", q) {
      w.mode match {
        case Serial =>
          prep = t.span("core.prep", q)(KClique.prepare(g, w.k, w.algo))
          kr = t.span("core.kernel", q)(kernel(prep, listing = false))
          Check.count(w.cliques, kr.total)
        case SparkCount =>
          // KCliqueSpark.count is exactly toLocal followed by countLocal.
          val loc = t.span("graph.to_local", q)(GraphDF.toLocal(in.edges))
          g = loc.graph
          val c = t.span("spark.count_local", q)(KCliqueSpark.countLocal(in.spark, g, w.k, w.algo))
          m += "graph.to_local_s" -> t.last("graph.to_local").seconds
          Check.count(w.cliques, c)
        case SparkList =>
          val df = t.span("spark.list", q)(KCliqueSpark.list(in.spark, in.edges, w.k, w.algo))
          val (rows, sum) = t.span("spark.consume", q)(consume(df, in.canon))
          m += "spark.rows" -> rows.toDouble
          Check.listing(w, rows, sum)
      }
    })
    val query = t.last("query")
    m += "trace.query_s" -> query.seconds

    if (tasks != null) {
      val recs = tasks.drain()
      val inQuery = t.spans.filter(s => s.query == q && !s.probe && s.name != "query")
      recs.foreach { r =>
        val s = Clock.toNanos(r.launchMs)
        val parent = inQuery.find(p => p.startNs <= s && s <= p.endNs).map(_.id).getOrElse(query.id)
        t.add("spark.task", q, parent, s, Clock.toNanos(r.finishMs),
          Map("stage" -> r.stage.toDouble, "run_s" -> r.runMs / 1e3, "gc_s" -> r.gcMs / 1e3))
      }
      m ++= SparkTasks.summarize(recs, query.seconds, cores)
    }

    // Probes: layers the query called from inside the program, re-called on the same input.
    if (w.mode == SparkList) {
      val loc = t.span("graph.to_local", q, probe = true)(GraphDF.toLocal(in.edges))
      g = loc.graph
      m += "graph.to_local_s" -> t.last("graph.to_local").seconds
    }
    if (w.mode != Serial) {
      prep = t.span("core.prep", q, probe = true)(KClique.prepare(g, w.k, w.algo))
      val bc = t.span("spark.broadcast", q, probe = true)(in.spark.sparkContext.broadcast(prep))
      m += "spark.broadcast_s" -> t.last("spark.broadcast").seconds
      bc.destroy()
      m += "spark.broadcast_bytes" -> serializedBytes(prep).toDouble
      kr = t.span("core.kernel", q, probe = true)(kernel(prep, listing = w.mode == SparkList))
    }
    if (kr != null) m ++= kernelMetrics(prep, kr, t.last("core.kernel"))
    m += "core.prep_s" -> t.last("core.prep").seconds
    t.span("order.truss", q, probe = true)(TrussDecomposition.run(g))
    t.span("order.core", q, probe = true)(CoreDecomposition.run(g))
    m += "order.truss_s" -> t.last("order.truss").seconds
    m += "order.core_s" -> t.last("order.core").seconds

    (failure, layerMetricNames.map(n => n -> m.getOrElse(n, 0.0)).toMap)
  }
}

/** Maps Spark's epoch-millisecond task times onto the tracer's nanoTime axis. */
object Clock {
  private val baseNs = System.nanoTime()
  private val baseMs = System.currentTimeMillis()
  def toNanos(epochMs: Long): Long = baseNs + (epochMs - baseMs) * 1000000L
}
