package kbench

import scala.collection.mutable.ArrayBuffer

/** One timed interval. `parent` is the id of the enclosing span, or -1;
  * spans of one query share `query`. Times are `System.nanoTime` values.
  * A `probe` span re-calls a layer on the query's own input after the query,
  * because the benchmark cannot reach calls made inside the program.
  */
final case class Span(
    id: Int,
    name: String,
    query: Int,
    parent: Int,
    startNs: Long,
    endNs: Long,
    probe: Boolean = false,
    attrs: Map[String, Double] = Map.empty
) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** In-memory span recorder; nothing is written until [[Tracer.json]]. */
final class Tracer {
  private val buf = ArrayBuffer.empty[Span]
  private var open = List.empty[Int]

  def spans: Seq[Span] = buf.toSeq

  private def nextId(): Int = buf.length

  /** Times `body` as a span nested in the innermost open span. */
  def span[A](name: String, query: Int, probe: Boolean = false)(body: => A): A = {
    val id = nextId()
    val parent = open.headOption.getOrElse(-1)
    buf += Span(id, name, query, parent, System.nanoTime(), 0L, probe)
    open = id :: open
    try body
    finally {
      open = open.tail
      buf(id) = buf(id).copy(endNs = System.nanoTime())
    }
  }

  /** Records an interval timed elsewhere (a Spark task) under `parent`. */
  def add(name: String, query: Int, parent: Int, startNs: Long, endNs: Long, attrs: Map[String, Double]): Unit =
    buf += Span(nextId(), name, query, parent, startNs, endNs, attrs = attrs)

  def last(name: String): Span = buf.findLast(_.name == name).get

  /** Duration minus the part of the interval covered by child spans; parallel
    * children (Spark tasks) are merged before subtracting.
    */
  def selfTimes: Map[Int, Double] = {
    val children = buf.groupBy(_.parent)
    buf.map { s =>
      val iv = children.getOrElse(s.id, Nil).map(c => (math.max(c.startNs, s.startNs), math.min(c.endNs, s.endNs)))
        .filter { case (a, b) => b > a }.sortBy(_._1)
      var covered = 0L
      var curA = Long.MinValue
      var curB = Long.MinValue
      iv.foreach { case (a, b) =>
        if (a > curB) { if (curB > curA) covered += curB - curA; curA = a; curB = b }
        else curB = math.max(curB, b)
      }
      if (curB > curA) covered += curB - curA
      s.id -> (s.endNs - s.startNs - covered) / 1e9
    }.toMap
  }

  def json(header: Map[String, String]): String = {
    val self = selfTimes
    val t0 = if (buf.isEmpty) 0L else buf.map(_.startNs).min
    def num(d: Double) = if (d.isNaN || d.isInfinite) "null" else d.toString
    val rows = buf.map { s =>
      val attrs = s.attrs.toSeq.sortBy(_._1).map { case (k, v) => s"\"$k\": ${num(v)}" }.mkString(", ")
      s"""  {"id": ${s.id}, "name": "${s.name}", "query": ${s.query}, "parent": ${s.parent}, """ +
        s""""start_s": ${num((s.startNs - t0) / 1e9)}, "end_s": ${num((s.endNs - t0) / 1e9)}, """ +
        s""""self_s": ${num(self(s.id))}, "probe": ${s.probe}, "attrs": {$attrs}}"""
    }
    val head = header.toSeq.sortBy(_._1).map { case (k, v) => s""""$k": "$v"""" }.mkString(", ")
    s"{$head, \"spans\": [\n${rows.mkString(",\n")}\n]}\n"
  }
}
