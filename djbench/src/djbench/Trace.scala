package djbench

import scala.collection.mutable.ArrayBuffer

/** One timed call into a layer. `request` groups the spans of one query (or
  * one set-up / build step); `parent` is the id of the enclosing span, or -1
  * for the request's root.
  */
final case class Span(id: Int, name: String, request: Long, parent: Int,
                      startNs: Long, endNs: Long) {
  def durMs: Double = (endNs - startNs) / 1e6
}

/** In-memory span recorder for one client thread. Spans are kept in a buffer
  * and written out once the run ends, so recording costs two `nanoTime`
  * reads and one small allocation per span.
  */
final class Tracer {
  private val buf = ArrayBuffer.empty[Span]
  private var stack: List[Span] = Nil // open spans, innermost first
  private var nextRequest = 0L
  private var nextId = 0

  /** Open a new request whose root span is `name`. */
  def request[A](name: String)(body: => A): A = {
    require(stack.isEmpty, s"request '$name' opened inside span '${stack.head.name}'")
    val r = nextRequest
    nextRequest += 1
    open(name, r, -1, body)
  }

  /** A child span of the innermost open span. */
  def span[A](name: String)(body: => A): A = {
    require(stack.nonEmpty, s"span '$name' outside a request")
    open(name, stack.head.request, stack.head.id, body)
  }

  /** Like [[span]], also returning the span's duration in ms. */
  def timed[A](name: String)(body: => A): (A, Double) = {
    val a = span(name)(body)
    (a, buf.last.durMs)
  }

  private def open[A](name: String, request: Long, parent: Int, body: => A): A = {
    val id = nextId
    nextId += 1
    val placeholder = Span(id, name, request, parent, System.nanoTime(), 0L)
    stack = placeholder :: stack
    try body
    finally {
      stack = stack.tail
      buf += placeholder.copy(endNs = System.nanoTime())
    }
  }

  def spans: IndexedSeq[Span] = buf.toIndexedSeq

  /** Durations (ms) of every span with this name. */
  def durations(name: String): Array[Double] =
    buf.iterator.filter(_.name == name).map(_.durMs).toArray

  /** Number of spans recorded so far. */
  def size: Int = buf.length

  /** Drop the spans recorded after the first `n` (discards the warm-up). */
  def truncate(n: Int): Unit = { require(stack.isEmpty); buf.remove(n, buf.length - n) }
}

object Tracer {

  /** Self time of each span: its duration minus the part of its interval
    * covered by its direct children (overlapping children counted once).
    */
  def selfTimesMs(spans: Seq[Span]): Map[Int, Double] = {
    val children = spans.groupBy(_.parent)
    spans.map { s =>
      val kids = children.getOrElse(s.id, Nil)
        .map(c => (math.max(c.startNs, s.startNs), math.min(c.endNs, s.endNs)))
        .filter { case (a, b) => b > a }
        .sortBy(_._1)
      var covered = 0L
      var curA = Long.MinValue
      var curB = Long.MinValue
      kids.foreach { case (a, b) =>
        if (a > curB) {
          if (curB > curA) covered += curB - curA
          curA = a; curB = b
        } else if (b > curB) curB = b
      }
      if (curB > curA) covered += curB - curA
      s.id -> (s.endNs - s.startNs - covered) / 1e6
    }.toMap
  }

  /** Problems with the span tree: every span but a request's root must have
    * a parent in the same request whose interval encloses it, and each
    * request has exactly one root. Empty when the trace is well formed.
    */
  def nestingErrors(spans: Seq[Span]): Seq[String] = {
    val byId = spans.map(s => s.id -> s).toMap
    val parentErrors = spans.filter(_.parent >= 0).flatMap { s =>
      byId.get(s.parent) match {
        case None => Some(s"span ${s.id} '${s.name}': parent ${s.parent} missing")
        case Some(p) if p.request != s.request =>
          Some(s"span ${s.id} '${s.name}': parent in request ${p.request}, not ${s.request}")
        case Some(p) if p.startNs > s.startNs || p.endNs < s.endNs =>
          Some(s"span ${s.id} '${s.name}': not inside parent '${p.name}'")
        case _ => None
      }
    }
    val rootErrors = spans.groupBy(_.request).collect {
      case (r, ss) if ss.count(_.parent < 0) != 1 =>
        s"request $r has ${ss.count(_.parent < 0)} roots"
    }
    parentErrors ++ rootErrors
  }

  /** Spans as JSON lines, each with its self time. */
  def toJsonLines(spans: Seq[Span]): Iterator[String] = {
    val self = selfTimesMs(spans)
    spans.iterator.map { s =>
      s"""{"id":${s.id},"name":"${s.name}","request":${s.request},"parent":${s.parent},""" +
        s""""start_ns":${s.startNs},"end_ns":${s.endNs},"self_ms":${self(s.id)}}"""
    }
  }
}

/** Latency samples of one probe, pooled over every measured pass. */
final class Samples {
  private val buf = ArrayBuffer.empty[Double]

  def add(ms: Double): Unit = buf += ms
  def count: Int = buf.length
  def p(q: Double): Double = Stats.percentile(buf.toArray, q)
}

object Stats {

  /** Nearest-rank percentile: the ⌈q·n⌉-th smallest sample (q in (0, 1]). */
  def percentile(xs: Array[Double], q: Double): Double = {
    require(xs.nonEmpty, "percentile of no samples")
    require(q > 0 && q <= 1, s"quantile $q outside (0, 1]")
    val s = xs.sorted
    s(math.max(0, math.ceil(q * s.length - 1e-9).toInt - 1))
  }

  def median(xs: Seq[Double]): Double = percentile(xs.toArray, 0.5)

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size
}
