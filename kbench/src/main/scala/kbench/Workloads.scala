package kbench

import repro.core.{AlgoConfig, Algos}

/** How a workload's query reaches the kernels. */
sealed trait Mode
/** `KClique.count` on an in-core graph, on the calling thread. */
case object Serial extends Mode
/** `KCliqueSpark.count` from an edge DataFrame. */
case object SparkCount extends Mode
/** `KCliqueSpark.list` from an edge DataFrame, consumed by a row count and a checksum. */
case object SparkList extends Mode

/** One fixed (graph, k, algorithm, mode) cell of the benchmark matrix, with
  * the exact answer every query must reproduce. `checksum` is the
  * [[Checksum]] of the listed cliques (list mode only).
  */
final case class Workload(
    name: String,
    graph: String,
    k: Int,
    algo: AlgoConfig,
    mode: Mode,
    cliques: Long,
    checksum: Long = 0L
)

object Workloads {

  /** Reference answers were computed serially on the unpermuted stand-ins
    * (EBBkC+ET, cross-checked with BitCol where it finishes) and are
    * independent of the seed, which only renames vertices.
    */
  val all: Seq[Workload] = Seq(
    Workload("wk8", "WK", 8, Algos.EBBkCET, Serial, 98568307L),
    Workload("uk32", "UK", 32, Algos.EBBkCET, Serial, 624484069L),
    Workload("po10-spark", "PO", 10, Algos.EBBkCET, SparkCount, 45362534L),
    Workload("wk12-list", "WK", 12, Algos.EBBkCET, SparkList, 661159L, 0xfaa9281bae666c9aL)
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(
      throw new IllegalArgumentException(s"unknown workload '$name'; one of ${all.map(_.name).mkString(", ")}")
    )
}

/** Seeded inputs: the seed only renames vertices, so every count is fixed
  * while peel tie-breaks, colorings, edge ids and partition assignment move.
  */
object Inputs {

  /** A uniformly random permutation of `0 until n`, fixed by `seed`. */
  def permutation(n: Int, seed: Long): Array[Int] = {
    val rnd = new java.util.SplittableRandom(seed)
    val p = Array.tabulate(n)(identity)
    var i = n - 1
    while (i > 0) {
      val j = rnd.nextInt(i + 1)
      val t = p(i); p(i) = p(j); p(j) = t
      i -= 1
    }
    p
  }

  def inverse(perm: Array[Int]): Array[Int] = {
    val inv = new Array[Int](perm.length)
    var i = 0
    while (i < perm.length) { inv(perm(i)) = i; i += 1 }
    inv
  }
}

/** Order-independent fingerprint of a set of cliques: the wrapping sum of a
  * 64-bit hash of each clique's sorted vertex ids.
  */
object Checksum {

  private def mix(z0: Long): Long = {
    var z = z0
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }

  /** Hash of one clique; `sorted` must hold its vertex ids in ascending order. */
  def clique(sorted: Array[Int]): Long = {
    var h = 0x9e3779b97f4a7c15L
    var i = 0
    while (i < sorted.length) { h = mix(h ^ sorted(i)); i += 1 }
    h
  }
}

/** The reference gate: why a count is wrong, or None when it is exact. */
object Check {

  def count(expected: Long, got: Long): Option[String] =
    if (got < 0) Some(s"negative count $got (overflow)")
    else if (got == Long.MaxValue) Some("saturated count Long.MaxValue")
    else if (got != expected) Some(s"count $got != reference $expected")
    else None

  def listing(w: Workload, rows: Long, checksum: Long): Option[String] =
    count(w.cliques, rows).orElse(
      if (checksum != w.checksum) Some(f"checksum $checksum%016x != reference ${w.checksum}%016x") else None
    )
}
