package djbench

/** Self-tests of the benchmark's own arithmetic; every run starts with them
  * and refuses to measure if one fails.
  */
object SelfTest {

  private def expect(what: String, cond: Boolean): Unit =
    if (!cond) throw new AssertionError(s"benchmark self-test failed: $what")

  def run(): Unit = {
    pooledPercentiles()
    spanSelfTime()
    spanNesting()
    encoderCounts()
    stratified()
  }

  /** The pool's visit order is a permutation whose prefixes span the sizes. */
  private def stratified(): Unit = {
    val sizes = IndexedSeq(5, 1, 4, 2, 3, 0, 7, 6)
    val order = Main.stratifiedOrder(sizes)
    expect("visit order is a permutation", order.sorted == sizes.indices)
    expect("prefixes span the sizes", order.map(sizes) == Seq(0, 4, 2, 6, 1, 5, 3, 7))
    expect("odd pool size", Main.stratifiedOrder(IndexedSeq(3, 1, 2)).map(IndexedSeq(3, 1, 2)) == Seq(1, 3, 2))
    expect("single query", Main.stratifiedOrder(IndexedSeq(9)) == Seq(0))
  }

  /** Percentiles pool every measured pass; nearest-rank selection. */
  private def pooledPercentiles(): Unit = {
    val s = new Samples
    for (pass <- 0 until 2) (1 to 10).foreach(i => s.add(pass * 10 + i))
    expect("pooled sample count", s.count == 20)
    expect("p50 is the 10th of 20", s.p(0.50) == 10.0)
    expect("p95 is the 19th of 20", s.p(0.95) == 19.0)
    expect("p100 is the maximum", s.p(1.0) == 20.0)
    expect("order does not matter", Stats.percentile(Array(3.0, 1.0, 2.0), 0.5) == 2.0)
    expect("single sample", Stats.percentile(Array(7.0), 0.95) == 7.0)
    expect("median of set-up reps", Stats.median(Seq(5.0, 1.0, 3.0)) == 3.0)
  }

  /** Self time = duration minus the union of the children's intervals. */
  private def spanSelfTime(): Unit = {
    val ms = 1000000L
    val spans = Seq(
      Span(0, "root", 0, -1, 0, 100 * ms),
      Span(1, "a", 0, 0, 10 * ms, 30 * ms),
      Span(2, "b", 0, 0, 20 * ms, 50 * ms), // overlaps a: 10..50 covered once
      Span(3, "c", 0, 0, 60 * ms, 70 * ms),
      Span(4, "a.child", 0, 1, 12 * ms, 18 * ms)) // grandchild: only a's self time
    val self = Tracer.selfTimesMs(spans)
    expect("root self time", math.abs(self(0) - 50.0) < 1e-9)
    expect("child self time", math.abs(self(1) - 14.0) < 1e-9)
    expect("leaf self time", math.abs(self(3) - 10.0) < 1e-9)
  }

  /** A real Tracer's spans nest; forged orphans and cross-request parents
    * are reported.
    */
  private def spanNesting(): Unit = {
    val t = new Tracer
    for (_ <- 0 until 2) t.request("query") {
      t.span("core.search")(t.span("embed.encode")(Thread.onSpinWait()))
      t.span("ann.search")(())
    }
    val spans = t.spans
    expect("tracer recorded every span", spans.size == 8 && spans.map(_.request).distinct.size == 2)
    expect("tracer spans nest", Tracer.nestingErrors(spans).isEmpty)
    val inner = spans.find(_.name == "embed.encode").get
    expect("encode is a child of search",
      spans.find(_.id == inner.parent).exists(_.name == "core.search"))
    val otherRoot = spans.filter(_.parent < 0).map(_.id).max
    expect("parent in another request is an error",
      Tracer.nestingErrors(spans :+ inner.copy(id = 99, parent = otherRoot)).nonEmpty)
    expect("missing parent is an error",
      Tracer.nestingErrors(spans :+ inner.copy(id = 99, parent = 1234)).nonEmpty)
    val mark = t.size
    t.request("warmup")(t.span("x")(()))
    t.truncate(mark)
    expect("truncate drops later spans", t.size == mark)
  }

  private def encoderCounts(): Unit = {
    expect("flops = 2L²d + 2Ld²", Main.encoderFlops(2, 3, 1, 1) == 2 * 4 * 3 + 2 * 2 * 9)
    expect("tokens per cell, empty cell counts one",
      Main.encoderTokens(Seq("new york", "", "ny"), 256) == 4)
    expect("tokens capped", Main.encoderTokens(Seq("a b c", "d e f"), 4) == 4)
  }
}
