package repro.embed

/** Exhaustive check of [[PlmEmbedder.tanh]]: all 2³² float bit patterns
  * against `math.tanh(x.toDouble).toFloat`, compared as raw bits, split
  * across at most `availableProcessors` threads. Prints the mismatch count
  * (with up to 10 examples), the fallback count (inputs the fast path leaves
  * to `StrictMath.tanh`, NaNs apart) and the wall time.
  *
  * {{{ sbt "Test/runMain repro.embed.TanhSweep" }}}
  */
object TanhSweep {
  def main(args: Array[String]): Unit = {
    val threads = math.max(1, Runtime.getRuntime.availableProcessors)
    val chunks = 256
    val next = new java.util.concurrent.atomic.AtomicInteger(0)
    val mismatches = new java.util.concurrent.atomic.AtomicLong(0)
    val fallbacks = new java.util.concurrent.atomic.AtomicLong(0)
    val nans = new java.util.concurrent.atomic.AtomicLong(0)
    val examples = new java.util.concurrent.ConcurrentLinkedQueue[String]()
    val fallbackExamples = new java.util.concurrent.ConcurrentLinkedQueue[String]()
    val perChunk = (1L << 32) / chunks
    val t0 = System.nanoTime()
    val workers = Seq.fill(threads)(new Thread(() => {
      var c = next.getAndIncrement()
      while (c < chunks) {
        var bad, fb, nan = 0L
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
          else if (PlmEmbedder.tanhFast(x).isNaN) {
            fb += 1
            if (fallbackExamples.size < 10) fallbackExamples.add(f"bits 0x${b.toInt}%08x x=$x%s")
          }
          b += 1
        }
        mismatches.addAndGet(bad); fallbacks.addAndGet(fb); nans.addAndGet(nan)
        c = next.getAndIncrement()
      }
    }))
    workers.foreach(_.start()); workers.foreach(_.join())
    val secs = (System.nanoTime() - t0) / 1e9
    println(f"TanhSweep: 2^32 inputs on $threads threads in $secs%.1f s")
    println(s"mismatches: ${mismatches.get}")
    examples.forEach(e => println(s"  mismatch $e"))
    println(s"fallbacks (non-NaN inputs): ${fallbacks.get}; NaN inputs: ${nans.get}")
    fallbackExamples.forEach(e => println(s"  fallback $e"))
  }
}
