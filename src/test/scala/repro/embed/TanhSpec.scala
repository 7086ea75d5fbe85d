package repro.embed

import java.lang.Float.{floatToRawIntBits, intBitsToFloat}

import org.scalatest.funsuite.AnyFunSuite

/** [[PlmEmbedder.tanh]] must return exactly `math.tanh(x.toDouble).toFloat`,
  * compared as raw bits so that −0.0 and NaN payloads count. The exhaustive
  * sweep over all 2³² inputs is `TanhSweep`.
  */
class TanhSpec extends AnyFunSuite {
  private def want(x: Float): Int = floatToRawIntBits(math.tanh(x.toDouble).toFloat)
  private def got(x: Float): Int = floatToRawIntBits(PlmEmbedder.tanh(x))

  private def assertExact(x: Float, what: String): Unit =
    assert(got(x) == want(x),
      f"$what: x=$x (0x${floatToRawIntBits(x)}%08x) got 0x${got(x)}%08x want 0x${want(x)}%08x")

  test("tanh matches math.tanh(x.toDouble).toFloat at every 2053rd float magnitude, both signs") {
    val stride = 2053
    var n, fallbacks = 0L
    var b = 0L
    while (b < 0x80000000L) {
      val pos = intBitsToFloat(b.toInt)
      Seq(pos, -pos).foreach { x =>
        if (got(x) != want(x)) assertExact(x, "strided sweep")
        if (x == x && PlmEmbedder.tanhFast(x).isNaN) fallbacks += 1
        n += 1
      }
      b += stride
    }
    assert(n > 2000000)
    // The native call is the rare exception (24,054 of 2³² inputs, NaNs apart).
    assert(fallbacks < n / 1000, s"$fallbacks fallbacks in $n inputs")
    info(s"$n inputs, $fallbacks fallbacks")
  }

  test("tanh matches at the edges: zeros, subnormals, the series bound, the clamp, 1.0f, infinities, NaN, fallbacks") {
    // Smallest positive x whose tanh rounds to 1.0f (tanh is monotone).
    var lo = 0; var hi = 0x7f800000
    while (lo < hi) {
      val mid = lo + (hi - lo) / 2
      if (math.tanh(intBitsToFloat(mid).toDouble).toFloat == 1.0f) hi = mid else lo = mid + 1
    }
    val firstOne = intBitsToFloat(lo)
    assert(math.tanh(Math.nextDown(firstOne).toDouble).toFloat < 1.0f)
    val seriesBound = 1.0f / 1024
    val clamp = 20.0f
    // Inputs the sweeps show to take the native call: one in the series
    // branch, one in the exp branch, and the two (of 2³²) whose estimate
    // alone would round to the neighbouring float.
    val fallbacks = Seq(0x39b89a40, 0x3b034004, 0x3af41fd8, 0x3afc9f57).map(intBitsToFloat)
    fallbacks.foreach(x => assert(PlmEmbedder.tanhFast(x).isNaN && PlmEmbedder.tanhFast(-x).isNaN, s"x=$x"))
    val magnitudes = Seq(
      "zero" -> 0.0f,
      "MinPositiveValue" -> Float.MinPositiveValue,
      "largest subnormal" -> intBitsToFloat(0x007fffff),
      "smallest normal" -> java.lang.Float.MIN_NORMAL,
      "below 2^-10" -> Math.nextDown(seriesBound),
      "2^-10" -> seriesBound,
      "above 2^-10" -> Math.nextUp(seriesBound),
      "below the clamp" -> Math.nextDown(clamp),
      "the clamp" -> clamp,
      "above the clamp" -> Math.nextUp(clamp),
      "below the first 1.0f" -> Math.nextDown(firstOne),
      "first 1.0f" -> firstOne,
      "MaxValue" -> Float.MaxValue,
      "infinity" -> Float.PositiveInfinity) ++ fallbacks.map("fallback" -> _)
    magnitudes.foreach { case (what, x) =>
      assertExact(x, what)
      assertExact(-x, s"-($what)")
    }
    Seq(0x7fc00000, 0xffc00000, 0x7fc00001, 0x7f800001, 0xffffffff).foreach { bits =>
      assertExact(intBitsToFloat(bits), f"NaN 0x$bits%08x")
    }
    assert(floatToRawIntBits(PlmEmbedder.tanh(-0.0f)) == floatToRawIntBits(-0.0f))
  }
}
