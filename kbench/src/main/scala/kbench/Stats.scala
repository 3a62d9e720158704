package kbench

/** Summary rules shared by every metric the benchmark prints. */
object Stats {

  /** Median; the mean of the two middle values for an even count. */
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** Nearest-rank `p`-quantile, reported only when at least `minBeyond`
    * samples lie above it; a tail percentile backed by fewer samples is noise.
    */
  def percentile(xs: Seq[Double], p: Double, minBeyond: Int = 10): Option[Double] = {
    require(p > 0 && p < 1, "p must be in (0, 1)")
    val n = xs.length
    val idx = math.ceil(p * n).toInt - 1
    if (n == 0 || n - 1 - idx < minBeyond) None else Some(xs.sorted.apply(idx))
  }

  private val tails = Seq("p99.9" -> 0.999, "p99" -> 0.99, "p90" -> 0.9)

  /** The highest of p90, p99, p99.9 that [[percentile]] allows, if any. */
  def highestTail(xs: Seq[Double]): Option[(String, Double)] =
    tails.iterator.flatMap { case (name, p) => percentile(xs, p).map(name -> _) }.nextOption()

  /** Slowest part over the median part: 1 means perfectly balanced. */
  def skew(parts: Seq[Double]): Double = {
    val med = median(parts)
    if (med <= 0) 0.0 else parts.max / med
  }

  /** Share of the available core-seconds that tasks spent running. */
  def efficiency(taskSeconds: Seq[Double], wallSeconds: Double, cores: Int): Double =
    if (wallSeconds <= 0 || cores <= 0) 0.0 else taskSeconds.sum / (wallSeconds * cores)
}
