package repro.embed

/** Feature-hashed sub-word embeddings (the mechanism behind fastText).
  *
  * A token is decomposed into its surface form plus character n-grams of a
  * padded form ("<tok>"); each feature hashes to a coordinate and a sign in a
  * `dim`-dimensional space. Tokens sharing most n-grams (typos, casing) land
  * close together; unrelated tokens are near-orthogonal — exactly the
  * property the paper's semantic-join cell space V requires.
  *
  * Pure, deterministic in (dim, seed), and cheap enough to run inside Spark
  * mapPartitions for bulk encoding.
  */
final class HashEmbedder(
    val dim: Int,
    val seed: Long,
    val useCharNgrams: Boolean = true,
    val minN: Int = 3,
    val maxN: Int = 5) extends Serializable {

  /** 64-bit string hash (FNV-1a with a seed fold); stable across JVMs. */
  private def hash(s: CharSequence, salt: Long): Long = {
    var h = 0xcbf29ce484222325L ^ seed ^ salt
    var i = 0
    while (i < s.length) {
      h ^= s.charAt(i)
      h *= 0x100000001b3L
      i += 1
    }
    h
  }

  private def addFeature(v: Array[Float], f: CharSequence, w: Float): Unit = {
    val h = hash(f, 0x5bd1L)
    val idx = ((h % dim) + dim) % dim
    val sign = if (((h >>> 17) & 1L) == 0L) 1.0f else -1.0f
    v(idx.toInt) += sign * w
  }

  /** Embed one token into a fresh array (unnormalized). */
  def embedTokenInto(tok: String, v: Array[Float]): Unit = {
    addFeature(v, tok, 1.0f)
    if (useCharNgrams) {
      val padded = "<" + tok + ">"
      var n = minN
      while (n <= maxN) {
        var i = 0
        while (i + n <= padded.length) {
          addFeature(v, padded.subSequence(i, i + n), 0.5f)
          i += 1
        }
        n += 1
      }
    }
  }

  def embedToken(tok: String): Array[Float] = {
    val v = new Array[Float](dim)
    embedTokenInto(tok, v)
    v
  }

  /** Mean of token embeddings, L2-normalized; zero-safe. */
  def embedText(tokens: Iterable[String]): Array[Float] = {
    val v = new Array[Float](dim)
    var n = 0
    tokens.foreach { t => embedTokenInto(t, v); n += 1 }
    if (n > 0) {
      val inv = 1.0f / n
      var i = 0
      while (i < dim) { v(i) *= inv; i += 1 }
    }
    VecOps.normalizeInPlace(v)
    v
  }
}

/** Small dense-vector helpers shared by encoders, trainers and ANN indexes. */
object VecOps {

  def dot(a: Array[Float], b: Array[Float]): Float = {
    var s = 0.0f
    var i = 0
    while (i < a.length) { s += a(i) * b(i); i += 1 }
    s
  }

  def norm(a: Array[Float]): Float = math.sqrt(dot(a, a).toDouble).toFloat

  def normalizeInPlace(a: Array[Float]): Array[Float] = {
    val n = norm(a)
    if (n > 1e-12f) {
      val inv = 1.0f / n
      var i = 0
      while (i < a.length) { a(i) *= inv; i += 1 }
    }
    a
  }

  def l2(a: Array[Float], b: Array[Float]): Float = l2(a, 0, b, 0, a.length)

  /** Euclidean distance of `a(aOff until aOff + len)` and
    * `b(bOff until bOff + len)`: float differences, squares summed in a
    * double in index order, then `sqrt` rounded to float.
    */
  def l2(a: Array[Float], aOff: Int, b: Array[Float], bOff: Int, len: Int): Float = {
    var s = 0.0
    var i = 0
    while (i < len) { val d = a(aOff + i) - b(bOff + i); s += d * d; i += 1 }
    math.sqrt(s).toFloat
  }

  def cosine(a: Array[Float], b: Array[Float]): Float = {
    val na = norm(a); val nb = norm(b)
    if (na < 1e-12f || nb < 1e-12f) 0.0f else dot(a, b) / (na * nb)
  }

  def axpy(alpha: Float, x: Array[Float], y: Array[Float]): Unit = {
    var i = 0
    while (i < x.length) { y(i) += alpha * x(i); i += 1 }
  }

  def scale(a: Array[Float], s: Float): Unit = {
    var i = 0
    while (i < a.length) { a(i) *= s; i += 1 }
  }

  def copy(a: Array[Float]): Array[Float] = java.util.Arrays.copyOf(a, a.length)
}
