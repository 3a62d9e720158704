package kbench

import java.nio.file.{Files, Paths}

import scala.collection.mutable.ArrayBuffer

/** The benchmark command. One run = set-up, warm-up, then timed queries for
  * `--seconds`; the last stdout line is the JSON result.
  *
  *   kbench.Main --workload wk8 --seed 1 --seconds 15 --trace 0
  *
  * `--trace 0` reports end-to-end metrics with tracing off; `--trace 1`
  * reports per-layer metrics from traced queries and writes their spans.
  */
object Main {

  /** An untraced run sets up at least this many times and this long;
    * `setup_s` is the median set-up.
    */
  val SetupReps = 5
  val SetupSeconds = 4.0
  /** Warm-up lasts at least this many queries and this many seconds. */
  val WarmupQueries = 2
  val WarmupSeconds = 3.0
  /** Fewest samples behind any reported median. */
  val MinSamples = 3

  final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean)

  def parse(args: Array[String]): Args = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments near ${other.mkString(" ")}")
    }.toMap
    def get(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val trace = get("trace") match {
      case "0" => false
      case "1" => true
      case t   => throw new IllegalArgumentException(s"--trace must be 0 or 1, not $t")
    }
    Args(get("workload"), get("seed").toLong, get("seconds").toInt, trace)
  }

  /** Counts checked queries and keeps the first few failure messages. */
  final class Tally {
    var attempted = 0
    var failed = 0
    val messages = ArrayBuffer.empty[String]
    def record(failure: Option[String]): Unit = {
      attempted += 1
      failure.foreach { msg =>
        failed += 1
        if (messages.length < 5) messages += msg
        Console.err.println(s"[kbench] query $attempted FAILED: $msg")
      }
    }
    def ratio: Double = if (attempted == 0) 0.0 else failed.toDouble / attempted
  }

  def main(argv: Array[String]): Unit = {
    val code =
      try run(parse(argv))
      catch {
        case e: IllegalArgumentException =>
          Console.err.println(s"[kbench] ${e.getMessage}")
          2
      }
    System.exit(code)
  }

  def run(a: Args): Int = {
    val w = Workloads.byName(a.workload)
    val cores = Runtime.getRuntime.availableProcessors
    val workDir = sys.props.getOrElse("kbench.work", ".bench_build/kbench")
    val tally = new Tally
    val algoName = w.algo.name
    println(s"kbench workload=${w.name} seed=${a.seed} graph=${w.graph} k=${w.k} algo=$algoName " +
      s"mode=${w.mode} cores=$cores seconds=${a.seconds} trace=${if (a.trace) 1 else 0}")

    val metrics: Seq[(String, Double, String)] =
      if (a.trace) traceRun(w, a, cores, workDir, tally)
      else measureRun(w, a, cores, workDir, tally)

    println(f"failed_ratio = ${tally.failed}/${tally.attempted} = ${tally.ratio}%.4f (warm-up queries included)")
    tally.messages.foreach(m => println(s"  failure: $m"))
    val body = metrics.map { case (name, v, unit) => s""""$name": {"value": $v, "unit": "$unit"}""" }.mkString(", ")
    println(s"""{"correct": ${tally.failed == 0}, "attempted": ${tally.attempted}, "failed": ${tally.failed}, "metrics": {$body}}""")
    if (tally.failed == 0) 0 else 1
  }

  /** Runs `body` back to back until `seconds` pass and it ran at least `min` times. */
  private def repeat(seconds: Double, min: Int)(body: => Unit): Unit = {
    val t0 = System.nanoTime()
    var n = 0
    while (n < min || (System.nanoTime() - t0) / 1e9 < seconds) { body; n += 1 }
  }

  private def warmup(in: Input, tally: Tally): Unit =
    repeat(WarmupSeconds, WarmupQueries)(tally.record(Queries.run(in)))

  /** Timed untraced queries: wall seconds and MB allocated per query. */
  private def timedQueries(in: Input, seconds: Double, tally: Tally): (Seq[Double], Seq[Double]) = {
    val secs = ArrayBuffer.empty[Double]
    val mbs = ArrayBuffer.empty[Double]
    repeat(seconds, MinSamples) {
      System.gc()
      val a0 = Alloc.snapshot()
      val t0 = System.nanoTime()
      val failure = Queries.run(in)
      secs += (System.nanoTime() - t0) / 1e9
      mbs += Alloc.since(a0) / 1e6
      tally.record(failure)
    }
    (secs.toSeq, mbs.toSeq)
  }

  private def describe(name: String, xs: Seq[Double], unit: String): String = {
    val tail = Stats.highestTail(xs).map { case (p, v) => f"$p $v%.4f" }
      .getOrElse("no tail percentile (needs >= 10 samples beyond it)")
    val shown = xs.take(12).map(x => f"$x%.4f").mkString(" ") + (if (xs.length > 12) " ..." else "")
    f"$name%-12s = ${Stats.median(xs)}%.4f $unit (median of ${xs.length}; $tail) samples: $shown"
  }

  def measureRun(w: Workload, a: Args, cores: Int, workDir: String, tally: Tally): Seq[(String, Double, String)] = {
    val setups = ArrayBuffer.empty[Double]
    var in: Input = null
    repeat(SetupSeconds, SetupReps) {
      if (in != null) Setup.teardown(in)
      val t0 = System.nanoTime()
      in = Setup.run(w, a.seed, cores, workDir, None)
      setups += (System.nanoTime() - t0) / 1e9
    }
    try {
      warmup(in, tally)
      val (secs, mbs) = timedQueries(in, a.seconds, tally)
      println(describe("setup_s", setups.toSeq, "s"))
      println(describe("query_s", secs, "s"))
      println(describe("alloc_mb", mbs, "MB"))
      Seq(("query_s", Stats.median(secs), "s"), ("alloc_mb", Stats.median(mbs), "MB"),
        ("setup_s", Stats.median(setups.toSeq), "s"))
    } finally Setup.teardown(in)
  }

  /** Untraced queries for half the time, then traced queries with probes. */
  def traceRun(w: Workload, a: Args, cores: Int, workDir: String, tally: Tally): Seq[(String, Double, String)] = {
    val tracer = new Tracer
    val in = Setup.run(w, a.seed, cores, workDir, Some(tracer))
    try {
      val tasks = if (in.spark == null) null else { val l = new TaskLog; in.spark.sparkContext.addSparkListener(l); l }
      warmup(in, tally)
      val (secs, _) = timedQueries(in, a.seconds / 2.0, tally)
      val perQuery = ArrayBuffer.empty[Map[String, Double]]
      var q = 0
      repeat(a.seconds / 2.0, 1) {
        q += 1
        System.gc()
        val (failure, m) = Queries.traced(in, q, tracer, tasks, cores)
        tally.record(failure)
        perQuery += m
      }
      val layer = Queries.layerMetricNames.map(n => n -> Stats.median(perQuery.map(_(n)).toSeq)).toMap
      val untraced = Stats.median(secs)
      val overhead = layer("trace.query_s") - untraced
      report(w, a, tracer, layer, untraced, overhead, workDir)
      (Queries.layerMetricNames.map(n => (n, layer(n), unitOf(n))) :+ (("trace.overhead_s", overhead, "s")))
    } finally Setup.teardown(in)
  }

  def unitOf(name: String): String =
    if (name.endsWith("_s")) "s" else if (name.endsWith("_ms")) "ms" else if (name.endsWith("_mb")) "MB"
    else if (name.endsWith("_bytes")) "bytes" else if (name.endsWith("_ratio") || name.endsWith("skew") ||
      name.endsWith("efficiency")) "ratio" else "count"

  private def report(w: Workload, a: Args, t: Tracer, layer: Map[String, Double], untraced: Double,
      overhead: Double, workDir: String): Unit = {
    Queries.layerMetricNames.foreach(n => println(f"$n%-24s = ${layer(n)}%.6f ${unitOf(n)}"))
    println(f"untraced query_s = $untraced%.4f s; traced = ${layer("trace.query_s")}%.4f s; " +
      f"trace.overhead_s = $overhead%.4f s")
    // Shares are of the traced query that holds the spans, so they do not mix
    // in run-to-run noise; on Spark workloads core.kernel_s is a serial probe.
    def share(n: String) = println(f"share $n / trace.query_s = ${layer(n) / layer("trace.query_s")}%.3f")
    Seq("graph.to_local_s", "order.truss_s", "core.prep_s", "core.kernel_s").foreach(share)
    // Median self time per span name, over the traced queries.
    val self = t.selfTimes
    println("self time by span (median over queries; probe spans re-call a layer after the query):")
    t.spans.filter(_.query > 0).groupBy(s => (s.name, s.probe)).toSeq.sortBy(_._1).foreach { case ((n, probe), ss) =>
      val med = Stats.median(ss.map(s => self(s.id)))
      println(f"  $n%-20s ${if (probe) "probe" else "     "} n=${ss.length}%-5d self ${med * 1e3}%10.2f ms")
    }
    val dir = Paths.get(workDir, "traces")
    Files.createDirectories(dir)
    val file = dir.resolve(s"${w.name}-seed${a.seed}.json")
    Files.writeString(file, t.json(Map("workload" -> w.name, "seed" -> a.seed.toString,
      "algo" -> w.algo.name, "k" -> w.k.toString)))
    println(s"spans written to $file")
  }
}
