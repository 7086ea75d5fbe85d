package repro.embed

/** Exhaustive check of [[PlmEmbedder.tanh]]: all 2³² float bit patterns
  * against `math.tanh(x.toDouble).toFloat`, compared as raw bits, split
  * across at most `availableProcessors` threads. Prints the mismatch count
  * (with up to 10 examples), then for each branch of [[PlmEmbedder.tanhFast]]
  * (polynomial below 1/4, `exp` up to 20, the clamp above) its non-NaN
  * inputs, its fallbacks to `StrictMath.tanh` and the inputs where the
  * estimate alone, without the rounding test, would round to another float
  * (each with up to 5 examples); then the wall time. Exits with status 1 on
  * any mismatch, so it can gate a change.
  *
  * {{{ sbt "Test/runMain repro.embed.TanhSweep" }}}
  */
object TanhSweep {
  private val branches = Seq("polynomial", "exp", "clamp")

  private def branch(x: Float): Int = {
    val a = math.abs(x)
    if (a < 0.25f) 0 else if (a <= 20) 1 else 2
  }

  def main(args: Array[String]): Unit = {
    val threads = math.max(1, Runtime.getRuntime.availableProcessors)
    val chunks = 256
    val next = new java.util.concurrent.atomic.AtomicInteger(0)
    val mismatches = new java.util.concurrent.atomic.AtomicLong(0)
    val nans = new java.util.concurrent.atomic.AtomicLong(0)
    // Per branch: inputs, fallbacks, estimates that alone round wrongly.
    val counts = new java.util.concurrent.atomic.AtomicLongArray(3 * branches.size)
    val examples = new java.util.concurrent.ConcurrentLinkedQueue[String]()
    // Per branch: fallback examples, then wrong-estimate examples.
    val branchExamples = Seq.fill(2 * branches.size)(new java.util.concurrent.ConcurrentLinkedQueue[String]())
    def example(i: Int, bits: Int, x: Float): Unit =
      branchExamples(i).synchronized {
        if (branchExamples(i).size < 5) branchExamples(i).add(f"bits 0x$bits%08x x=$x%s")
      }
    val perChunk = (1L << 32) / chunks
    val t0 = System.nanoTime()
    val workers = Seq.fill(threads)(new Thread(() => {
      var c = next.getAndIncrement()
      while (c < chunks) {
        var bad, nan = 0L
        val local = new Array[Long](3 * branches.size)
        var b = c * perChunk
        val end = b + perChunk
        while (b < end) {
          val x = java.lang.Float.intBitsToFloat(b.toInt)
          val got = java.lang.Float.floatToRawIntBits(PlmEmbedder.tanh(x))
          val want = java.lang.Float.floatToRawIntBits(math.tanh(x.toDouble).toFloat)
          if (got != want) {
            bad += 1
            if (examples.size < 10) examples.add(f"bits 0x${b.toInt}%08x x=$x%s got 0x$got%08x want 0x$want%08x")
          }
          if (x != x) nan += 1
          else {
            val br = branch(x)
            local(3 * br) += 1
            if (PlmEmbedder.tanhFast(x).isNaN) {
              local(3 * br + 1) += 1
              example(2 * br, b.toInt, x)
            }
            if (br < 2 && java.lang.Float.floatToRawIntBits(PlmEmbedder.tanhEstimate(x).toFloat) != want) {
              local(3 * br + 2) += 1
              example(2 * br + 1, b.toInt, x)
            }
          }
          b += 1
        }
        mismatches.addAndGet(bad); nans.addAndGet(nan)
        local.indices.foreach(i => counts.addAndGet(i, local(i)))
        c = next.getAndIncrement()
      }
    }))
    workers.foreach(_.start()); workers.foreach(_.join())
    val secs = (System.nanoTime() - t0) / 1e9
    println(f"TanhSweep: 2^32 inputs on $threads threads in $secs%.1f s")
    println(s"mismatches: ${mismatches.get}")
    examples.forEach(e => println(s"  mismatch $e"))
    branches.indices.foreach { br =>
      println(s"${branches(br)}: ${counts.get(3 * br)} inputs, ${counts.get(3 * br + 1)} fallbacks" +
        (if (br < 2) s", ${counts.get(3 * br + 2)} estimates that alone round wrongly" else ""))
      branchExamples(2 * br).forEach(e => println(s"  fallback $e"))
      branchExamples(2 * br + 1).forEach(e => println(s"  wrong estimate $e"))
    }
    println(s"fallbacks (non-NaN inputs): ${branches.indices.map(br => counts.get(3 * br + 1)).sum}; NaN inputs: ${nans.get}")
    if (mismatches.get != 0) sys.exit(1)
  }
}
