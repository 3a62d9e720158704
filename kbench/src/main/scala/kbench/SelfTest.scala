package kbench

import repro.core.{Algos, KClique}
import repro.graph.GraphGen

/** Harness tests on fixed inputs: `python3 kbench/run.py --self-test`.
  * Prints one line per check and exits non-zero if any fails.
  */
object SelfTest {

  private var failures = 0

  private def check(name: String)(ok: => Boolean): Unit = {
    val passed = try ok catch { case e: Throwable => println(s"  threw $e"); false }
    if (!passed) failures += 1
    println(s"${if (passed) "ok  " else "FAIL"} $name")
  }

  private def close(a: Double, b: Double) = math.abs(a - b) < 1e-9

  def main(args: Array[String]): Unit = {
    check("median of odd and even counts") {
      Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0 && Stats.median(Seq(4.0, 1.0, 3.0, 2.0)) == 2.5
    }
    check("a percentile needs 10 samples beyond it") {
      val hundred = (1 to 100).map(_.toDouble)
      Stats.percentile(hundred, 0.9).contains(90.0) && Stats.percentile(hundred.tail, 0.9).isEmpty &&
      Stats.percentile(hundred, 0.99).isEmpty
    }
    check("highest tail is the highest percentile the rule allows") {
      val thousand = (1 to 1000).map(_.toDouble)
      Stats.highestTail(thousand).contains("p99" -> 990.0) &&
      Stats.highestTail(thousand.take(100)).contains("p90" -> 90.0) &&
      Stats.highestTail(thousand.take(99)).isEmpty
    }
    check("skew is max over median") {
      close(Stats.skew(Seq(1.0, 1.0, 2.0, 4.0)), 4.0 / 1.5) && close(Stats.skew(Seq(2.0, 2.0)), 1.0)
    }
    check("efficiency is task time over wall times cores") {
      close(Stats.efficiency(Seq(1.0, 1.0, 1.0, 1.0), 2.0, 4), 0.5) && Stats.efficiency(Nil, 0.0, 4) == 0.0
    }
    check("task summary balances the kernel stage and sums every stage") {
      val recs = Seq(TaskRec(0, 0, 100, 100, 10), TaskRec(1, 0, 1000, 1000, 0),
        TaskRec(1, 0, 500, 500, 20), TaskRec(1, 0, 500, 500, 0))
      val s = SparkTasks.summarize(recs, 1.0, 4)
      s("spark.tasks") == 3 && close(s("spark.task_median_s"), 0.5) && close(s("spark.task_max_s"), 1.0) &&
      close(s("spark.task_skew"), 2.0) && close(s("spark.efficiency"), 2.1 / 4) && close(s("spark.task_gc_s"), 0.03)
    }
    check("reference gate rejects wrong, negative and saturated counts") {
      Check.count(10, 10).isEmpty && Check.count(10, 11).isDefined &&
      Check.count(-5, -5).exists(_.contains("negative")) &&
      Check.count(Long.MaxValue, Long.MaxValue).exists(_.contains("saturated"))
    }
    check("failures are counted against attempts, thrown queries included") {
      val t = new Main.Tally
      t.record(None)
      t.record(Check.count(1, 2))
      t.record(Queries.guarded(throw new RuntimeException("boom")))
      t.record(None)
      t.attempted == 4 && t.failed == 2 && close(t.ratio, 0.5) && t.messages.exists(_.contains("boom"))
    }
    check("self time subtracts the union of child intervals") {
      val t = new Tracer
      t.add("root", 1, -1, 0, 10, Map.empty)
      Seq((1L, 3L), (2L, 5L), (7L, 8L), (9L, 12L)).foreach { case (a, b) => t.add("c", 1, 0, a, b, Map.empty) }
      close(t.selfTimes(0), 4e-9) && close(t.selfTimes(1), 2e-9)
    }
    check("nested spans get their parent") {
      val t = new Tracer
      t.span("a", 1)(t.span("b", 1)(()))
      t.last("b").parent == t.last("a").id && t.last("a").parent == -1
    }
    check("permutations are bijections fixed by the seed") {
      val p = Inputs.permutation(50, 7)
      p.sorted.sameElements(0 until 50) && p.sameElements(Inputs.permutation(50, 7)) &&
      !p.sameElements(Inputs.permutation(50, 8)) && Inputs.inverse(p).map(p).sameElements(0 until 50)
    }

    // Tiny graph: a dense random graph with two planted cliques.
    val tiny = GraphGen.plantCliques(GraphGen.gnp(40, 0.3, 5), Seq(0 until 9, 20 until 27))
    def listSum(g: repro.graph.LocalGraph, k: Int, canon: Array[Int]): Long =
      KClique.list(g, k, Algos.EBBkCET).iterator.map { c =>
        val ids = c.map(canon); java.util.Arrays.sort(ids); Checksum.clique(ids)
      }.sum
    check("seed permutations leave counts and checksums unchanged") {
      val id = Array.tabulate(tiny.n)(identity)
      (4 to 7).forall { k =>
        val want = KClique.count(tiny, k, Algos.BitCol)
        val sum = listSum(tiny, k, id)
        (1L to 5L).forall { seed =>
          val perm = Inputs.permutation(tiny.n, seed)
          val g = tiny.relabel(perm)
          KClique.count(g, k, Algos.EBBkCET) == want && KClique.count(g, k, Algos.BitCol) == want &&
          listSum(g, k, Inputs.inverse(perm)) == sum
        }
      }
    }
    check("the traced kernel loop counts what KClique.count counts") {
      (4 to 7).forall { k =>
        val run = Queries.kernel(KClique.prepare(tiny, k, Algos.EBBkCET), listing = false)
        val listed = Queries.kernel(KClique.prepare(tiny, k, Algos.EBBkCET), listing = true)
        val want = KClique.count(tiny, k, Algos.EBBkCET)
        run.total == want && listed.total == want && run.productive <= run.subNs.length
      }
    }

    println(if (failures == 0) "self-test passed" else s"self-test: $failures check(s) failed")
    System.exit(if (failures == 0) 0 else 1)
  }
}
