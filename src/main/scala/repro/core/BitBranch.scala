package repro.core

/** Word-parallel branching over one branch graph in position space — the
  * inner loop shared by EBBkC-H (Algorithms 4/5) and the bitset baselines
  * SDegree/BitCol (the JVM stand-ins for the SIMD set intersections of Yuan
  * et al.). One instance per kernel; it holds one branch graph at a time.
  *
  * Layout: vertex p is the p-th vertex of the caller's ordering. `outRows(p)`
  * has bit q set iff p ~ q and q > p, `undRows(p)` iff p ~ q; `toOuter(p)` is
  * the caller's id for emission. With colors, they never increase with
  * position, so each color class is a contiguous run of positions.
  *
  * Candidate sets live in preallocated scratch rows, one per stack slot: a
  * step at stack depth `sp` reads its candidates from slot sp - 1, the vertex
  * step writes its sub-branch into slot sp, and the edge step writes slots sp
  * and sp + 1. So the recursion allocates nothing per branch.
  *
  * @param maxSize bound on the vertices of any branch graph loaded
  * @param rule2   prune sub-branches with too few distinct colors (Rule 2)
  * @param etT     early-termination threshold t, 0 = off
  */
final class BitBranch(maxSize: Int, k: Int, stack: Array[Int], rule2: Boolean, etT: Int) {
  private val slots = Array.ofDim[Long](k, (maxSize + 63) >>> 6)
  private val posOf = new Array[Int](maxSize)
  private val toOuter = new Array[Int](maxSize)
  private val colorOf = new Array[Int](maxSize)
  // colorEnd(p): first position after p's color run.
  private val colorEnd = new Array[Int](maxSize)
  private var words = 0
  private var colors: Array[Int] = null // colorOf while loaded with colors, else null
  private var outRows: Array[Array[Long]] = null
  private var undRows: Array[Array[Long]] = null

  /** Loads a branch graph and puts all of its vertices into slot sp - 1, as
    * the candidates of a step at stack depth `sp`.
    *
    * @param adj       adjacency lists over dense local ids `0 until s`
    * @param order     position -> local id
    * @param keyColors color of each local id, non-increasing along `order`;
    *                  null disables the color rules
    * @param outer     local id -> caller's vertex id
    */
  def load(adj: Array[Array[Int]], order: Array[Int], keyColors: Array[Int], outer: Array[Int], sp: Int): Unit = {
    val s = order.length
    words = (s + 63) >>> 6
    outRows = Array.ofDim[Long](s, words)
    undRows = Array.ofDim[Long](s, words)
    colors = if (keyColors == null) null else colorOf
    var p = 0
    while (p < s) { posOf(order(p)) = p; p += 1 }
    p = 0
    while (p < s) {
      val v = order(p)
      toOuter(p) = outer(v)
      if (colors != null) colors(p) = keyColors(v)
      val nb = adj(v)
      var j = 0
      while (j < nb.length) {
        val q = posOf(nb(j))
        undRows(p)(q >>> 6) |= 1L << (q & 63)
        if (q > p) outRows(p)(q >>> 6) |= 1L << (q & 63)
        j += 1
      }
      p += 1
    }
    if (colors != null) {
      p = s - 1
      while (p >= 0) {
        colorEnd(p) = if (p + 1 < s && colors(p + 1) == colors(p)) colorEnd(p + 1) else p + 1
        p -= 1
      }
    }
    val all = slots(sp - 1)
    java.util.Arrays.fill(all, 0, words, 0L)
    p = 0
    while (p < s) { all(p >>> 6) |= 1L << (p & 63); p += 1 }
  }

  /** EBBkC-H step on `cnt` candidates (Algorithm 4 in position space): picks
    * an out-edge (u, v) among the candidates, so each l-clique is formed from
    * its two smallest positions, and prunes by Rules 1a/1b and 2. The ET
    * probe is skipped when the caller already probed this branch.
    */
  def edgeStep(cnt: Int, l: Int, sp: Int, probeEt: Boolean, sink: CliqueSink): Unit = {
    val c = slots(sp - 1)
    if (cnt < l || (probeEt && tryEarlyTerminate(c, cnt, l, sp, sink))) return
    if (l == 1) { emit1(c, cnt, sp, sink); return }
    if (l == 2) { emit2(c, sp, sink); return }
    val cu = slots(sp)
    val c2 = slots(sp + 1)
    var w = 0
    while (w < words) {
      var bits = c(w)
      while (bits != 0) {
        val u = (w << 6) + java.lang.Long.numberOfTrailingZeros(bits)
        bits &= bits - 1
        if (colors(u) < l) return // Rule (1a): colors descend with position
        and(c, outRows(u), cu)
        var v = next(cu, 0)
        while (v >= 0 && colors(v) >= l - 1) { // Rule (1b)
          val cnt2 = and(cu, outRows(v), c2)
          if (cnt2 >= l - 2 && (!rule2 || hasColors(c2, l - 2))) {
            stack(sp) = toOuter(u); stack(sp + 1) = toOuter(v)
            edgeStep(cnt2, l - 2, sp + 2, probeEt = true, sink)
          }
          v = next(cu, v + 1)
        }
      }
      w += 1
    }
  }

  /** VBBkC step on `cnt` candidates (Algorithm 1): branches on each candidate
    * u over its later neighbors, with color pruning when loaded with colors.
    */
  def vertexStep(cnt: Int, l: Int, sp: Int, sink: CliqueSink): Unit = {
    val c = slots(sp - 1)
    if (cnt < l || tryEarlyTerminate(c, cnt, l, sp, sink)) return
    if (l == 1) { emit1(c, cnt, sp, sink); return }
    if (l == 2) { emit2(c, sp, sink); return }
    val cu = slots(sp)
    var w = 0
    while (w < words) {
      var bits = c(w)
      while (bits != 0) {
        val u = (w << 6) + java.lang.Long.numberOfTrailingZeros(bits)
        bits &= bits - 1
        if (colors != null && colors(u) < l) return // positions ascend, colors descend
        val cnt2 = and(c, outRows(u), cu)
        if (cnt2 >= l - 1 && (!rule2 || hasColors(cu, l - 1))) {
          stack(sp) = toOuter(u)
          vertexStep(cnt2, l - 1, sp + 1, sink)
        }
      }
      w += 1
    }
  }

  /** Smallest position >= `from` in `c`, or -1. The per-candidate loops of
    * the steps and of emit2 clear bits in a register instead: their bodies
    * are one AND, so a `next` call per candidate costs measurably more.
    */
  private def next(c: Array[Long], from: Int): Int = {
    var w = from >>> 6
    if (w >= words) return -1
    var bits = c(w) & (-1L << (from & 63))
    while (bits == 0) {
      w += 1
      if (w == words) return -1
      bits = c(w)
    }
    (w << 6) + java.lang.Long.numberOfTrailingZeros(bits)
  }

  /** |a & b|. */
  private def common(a: Array[Long], b: Array[Long]): Int = {
    var cnt = 0
    var w = 0
    while (w < words) { cnt += java.lang.Long.bitCount(a(w) & b(w)); w += 1 }
    cnt
  }

  /** dst = a & b; returns |dst|. */
  private def and(a: Array[Long], b: Array[Long], dst: Array[Long]): Int = {
    var cnt = 0
    var w = 0
    while (w < words) {
      val x = a(w) & b(w)
      dst(w) = x
      cnt += java.lang.Long.bitCount(x)
      w += 1
    }
    cnt
  }

  /** Rule (2): whether `c` holds at least `need` distinct colors. An
    * ascending scan meets each color as one run, so it jumps run to run and
    * stops at `need`.
    */
  private def hasColors(c: Array[Long], need: Int): Boolean = {
    var runs = 0
    var u = next(c, 0)
    while (u >= 0) {
      runs += 1
      if (runs >= need) return true
      u = next(c, colorEnd(u))
    }
    false
  }

  /** l = 1: each candidate completes a clique. */
  private def emit1(c: Array[Long], cnt: Int, sp: Int, sink: CliqueSink): Unit =
    if (!sink.wantsCliques) sink.onCount(cnt)
    else {
      var u = next(c, 0)
      while (u >= 0) {
        stack(sp) = toOuter(u); sink.onClique(stack, sp + 1)
        u = next(c, u + 1)
      }
    }

  /** l = 2: each out-edge among the candidates completes a clique; counting
    * mode only popcounts them.
    */
  private def emit2(c: Array[Long], sp: Int, sink: CliqueSink): Unit = {
    val cu = slots(sp)
    var edges = 0L
    var w = 0
    while (w < words) {
      var bits = c(w)
      while (bits != 0) {
        val u = (w << 6) + java.lang.Long.numberOfTrailingZeros(bits)
        bits &= bits - 1
        if (!sink.wantsCliques) edges += common(c, outRows(u))
        else {
          and(c, outRows(u), cu)
          stack(sp) = toOuter(u)
          var v = next(cu, 0)
          while (v >= 0) {
            stack(sp + 1) = toOuter(v); sink.onClique(stack, sp + 2)
            v = next(cu, v + 1)
          }
        }
      }
      w += 1
    }
    if (!sink.wantsCliques) sink.onCount(edges)
  }

  /** Early termination (Section 5): true iff the branch graph on `c` is a
    * t-plex and was listed. The induced-degree scan aborts at the first
    * member below cnt - t, which is where most branches fail; only a plex
    * gets its adjacency matrix built.
    */
  private def tryEarlyTerminate(c: Array[Long], cnt: Int, l: Int, sp: Int, sink: CliqueSink): Boolean = {
    if (etT <= 0 || l < 3) return false
    var u = next(c, 0)
    while (u >= 0) {
      if (common(c, undRows(u)) < cnt - etT) return false
      u = next(c, u + 1)
    }
    val members = new Array[Int](cnt)
    val verts = new Array[Int](cnt)
    var i = 0
    u = next(c, 0)
    while (u >= 0) { members(i) = u; verts(i) = toOuter(u); i += 1; u = next(c, u + 1) }
    val rows = Array.ofDim[Long](cnt, (cnt + 63) >>> 6)
    i = 0
    while (i < cnt) {
      val row = undRows(members(i))
      var j = i + 1
      while (j < cnt) {
        val b = members(j)
        if ((row(b >>> 6) & (1L << (b & 63))) != 0) {
          rows(i)(j >>> 6) |= 1L << (j & 63)
          rows(j)(i >>> 6) |= 1L << (i & 63)
        }
        j += 1
      }
      i += 1
    }
    PlexListers.tryEarlyTerminate(stack, sp, verts, cnt, rows, l, etT, sink)
  }
}
