package repro.core

import repro.order.Coloring

/** A colored DAG over a (sub)graph, relabeled into *position space*: vertex p
  * is the p-th vertex of the color-based ordering (color descending, ties by
  * id ascending — Section 4.3), so `colors` is non-increasing with position
  * and every edge is oriented toward the larger position. This is the
  * structure EBBkC-C branches on globally and the array-based VBBkC
  * baselines build per subproblem.
  *
  * @param out      out-neighbors (larger positions), sorted ascending
  * @param und      all neighbors as positions, sorted ascending
  * @param colors   greedy color of each position (non-increasing); Degen and
  *                 DDegree store their ordering key (0 or degree) here and
  *                 never read it as a color
  * @param toOuter  position -> caller's vertex id (for emission)
  */
final class ColorDag(
    val s: Int,
    val out: Array[Array[Int]],
    val und: Array[Array[Int]],
    val colors: Array[Int],
    val toOuter: Array[Int]
) extends Serializable {
  val maxColor: Int = if (s == 0) 0 else colors(0)

  def approxBytes: Long = {
    var b = 4L * (2 * s + 2)
    var i = 0
    while (i < s) { b += 4L * (out(i).length + und(i).length); i += 1 }
    b
  }

  /** Rule (2): whether the sorted positions `c` hold at least `need`
    * distinct colors. Colors never increase with position, so each color is
    * one run of `c`; the scan stops at `need` runs.
    */
  def hasColors(c: Array[Int], need: Int): Boolean = {
    var runs = 0
    var last = -1
    var i = 0
    while (i < c.length) {
      val col = colors(c(i))
      if (col != last) {
        runs += 1
        if (runs >= need) return true
        last = col
      }
      i += 1
    }
    false
  }

  /** Early termination (Section 5) of the branch on sorted positions `c`:
    * true iff its graph is a t-plex and was listed.
    */
  def tryEarlyTerminate(c: Array[Int], l: Int, t: Int, stack: Array[Int], sp: Int, sink: CliqueSink): Boolean =
    t > 0 && l >= 3 && {
      val rows = PlexListers.buildRowsIfPlex(und(_), c, t)
      rows != null && PlexListers.tryEarlyTerminate(stack, sp, c.map(toOuter(_)), c.length, rows, l, t, sink)
    }

  /** l = 1 and l = 2 base cases on sorted positions `c`: each candidate, or
    * each out-edge among them, completes a clique. Counting mode only
    * counts the out-edges.
    */
  def emitBase(c: Array[Int], l: Int, stack: Array[Int], sp: Int, sink: CliqueSink): Unit =
    if (l == 1) ColorDag.emitEach(c, toOuter, stack, sp, sink)
    else {
      var edges = 0L
      var i = 0
      while (i < c.length) {
        val u = c(i)
        if (!sink.wantsCliques) edges += IntArrays.intersectionSize(c, out(u))
        else {
          stack(sp) = toOuter(u)
          ColorDag.emitEach(IntArrays.intersectSorted(c, out(u)), toOuter, stack, sp + 1, sink)
        }
        i += 1
      }
      if (!sink.wantsCliques) sink.onCount(edges)
    }
}

object ColorDag {

  /** Builds the DAG from adjacency lists over dense ids `0 until s`.
    *
    * @return the DAG plus `posOf`: dense id -> position (needed by callers
    *         that must map pre-existing edge endpoints into position space)
    */
  def build(
      adjLists: Array[Array[Int]],
      colors: Array[Int],
      toOuterIds: Array[Int]
  ): (ColorDag, Array[Int]) = {
    val s = adjLists.length
    val order = Coloring.colorDescOrder(colors) // position -> dense id
    val posOf = new Array[Int](s)
    var i = 0
    while (i < s) { posOf(order(i)) = i; i += 1 }

    val out = new Array[Array[Int]](s)
    val und = new Array[Array[Int]](s)
    val cols = new Array[Int](s)
    val toOuter = new Array[Int](s)
    var p = 0
    while (p < s) {
      val v = order(p)
      val nb = adjLists(v)
      val undP = new Array[Int](nb.length)
      var j = 0
      while (j < nb.length) { undP(j) = posOf(nb(j)); j += 1 }
      java.util.Arrays.sort(undP)
      und(p) = undP
      var lo = 0
      while (lo < undP.length && undP(lo) <= p) lo += 1
      out(p) = java.util.Arrays.copyOfRange(undP, lo, undP.length)
      cols(p) = colors(v)
      toOuter(p) = toOuterIds(v)
      p += 1
    }
    (new ColorDag(s, out, und, cols, toOuter), posOf)
  }

  /** l = 1 base case: each of the positions `c` completes a clique;
    * `toOuter` maps a position to the caller's vertex id.
    */
  def emitEach(c: Array[Int], toOuter: Array[Int], stack: Array[Int], sp: Int, sink: CliqueSink): Unit =
    if (!sink.wantsCliques) sink.onCount(c.length)
    else {
      var i = 0
      while (i < c.length) { stack(sp) = toOuter(c(i)); sink.onClique(stack, sp + 1); i += 1 }
    }
}
