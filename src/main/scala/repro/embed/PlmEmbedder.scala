package repro.embed

import repro.lake.LakeColumn
import repro.text.{Contextualizer, Tokenizer}

/** A projection applied on top of pooled PLM features (the "fine-tuned"
  * part of DeepJoin — see [[repro.train.DiagonalHead]]).
  */
trait EmbeddingHead extends Serializable {
  def dIn: Int
  def dOut: Int
  /** Unit-norm projected embedding. */
  def apply(x: Array[Float]): Array[Float]
}

/** Architecture of a simulated pre-trained language model.
  *
  * The encoder performs genuine transformer-shaped arithmetic — hashed token
  * (+ char-n-gram) embeddings, sinusoidal positional mixing, O(L²·d)
  * self-attention mixing layers and O(L·d²) feed-forward layers with fixed
  * seeded weights — so that (a) it is order-sensitive like a real PLM (the
  * cell-shuffle ablation depends on this), (b) attention concentrates on
  * high-frequency tokens, and (c) the efficiency benches measure a real
  * compute profile with the right asymptotics in L and d.
  *
  * "MPNet" is configured larger and with richer sub-word features than
  * "DistilBERT", which reproduces the paper's consistent quality ordering.
  */
final case class PlmConfig(
    name: String,
    dim: Int,
    charNgrams: Boolean,
    minNgram: Int,
    maxNgram: Int,
    posSensitivity: Double,
    attnLayers: Int,
    ffnLayers: Int,
    seed: Long) extends Serializable

object PlmConfig {
  val distilbert: PlmConfig = PlmConfig(
    "DistilBERT", dim = 256, charNgrams = true, minNgram = 3, maxNgram = 4,
    posSensitivity = 0.18, attnLayers = 1, ffnLayers = 1, seed = 0xd157L)

  val mpnet: PlmConfig = PlmConfig(
    "MPNet", dim = 384, charNgrams = true, minNgram = 2, maxNgram = 5,
    posSensitivity = 0.12, attnLayers = 1, ffnLayers = 1, seed = 0x3b9eL)

  /** BERT baseline: weaker sub-word features and stronger position
    * dependence — untuned BERT loses to fastText in the paper.
    */
  val bert: PlmConfig = PlmConfig(
    "BERT", dim = 256, charNgrams = true, minNgram = 3, maxNgram = 3,
    posSensitivity = 0.28, attnLayers = 1, ffnLayers = 1, seed = 0xbe27L)
}

/** The (simulated) PLM column encoder of Section 3.2.
  *
  * @param cfg       model architecture
  * @param ctx       column-to-text transformation to apply first
  * @param head      optional fine-tuned projection (None = raw PLM baseline)
  * @param parallel  when true, the per-token feed-forward and attention rows
  *                  run data-parallel across cores — the stand-in for the
  *                  paper's GPU-accelerated query encoding
  */
final class PlmEmbedder(
    val cfg: PlmConfig,
    val ctx: Contextualizer,
    val head: Option[EmbeddingHead] = None,
    val parallel: Boolean = false,
    /** Weight cell contributions by inverse corpus frequency during pooling.
      * This models what the paper attributes to *fine-tuned* attention —
      * focusing on the cells more likely to discriminate a match — so it is
      * enabled for DeepJoin (fine-tuned) and off for raw PLM baselines,
      * whose pre-training has never seen the repository's statistics.
      */
    val idfPooling: Boolean = false) extends ColumnEmbedder {

  override def name: String =
    (if (head.isDefined) s"DeepJoin-${cfg.name}" else cfg.name) + s"/${ctx.option.name}"

  override def dim: Int = head.map(_.dOut).getOrElse(cfg.dim)

  // Field-segmented layout: title / colname / stat / context pool into
  // disjoint coordinate ranges, cells take the remainder. Real PLMs separate
  // fields via segment/position context that fine-tuning can exploit; with
  // pooled hashed features the only way a trained head can re-weight fields
  // is if they occupy disjoint coordinates.
  private val dMeta = cfg.dim / 10
  private val dStat = cfg.dim / 20
  private val titleOff = 0
  private val colnameOff = dMeta
  private val statOff = 2 * dMeta
  private val contextOff = 2 * dMeta + dStat
  private val cellOff = 2 * dMeta + 2 * dStat
  /** Dimensionality of the cell-content segment. */
  val dCell: Int = cfg.dim - cellOff

  private val cellEmb =
    new HashEmbedder(dCell, cfg.seed, useCharNgrams = cfg.charNgrams,
      minN = cfg.minNgram, maxN = math.max(cfg.minNgram, cfg.maxNgram))
  private val titleEmb = new HashEmbedder(dMeta, cfg.seed ^ 0x7171L, cfg.charNgrams)
  private val colnameEmb = new HashEmbedder(dMeta, cfg.seed ^ 0xc01L, cfg.charNgrams)
  private val statEmb = new HashEmbedder(dStat, cfg.seed ^ 0x57a7L, useCharNgrams = false)
  private val contextEmb = new HashEmbedder(dStat, cfg.seed ^ 0xc0deL, cfg.charNgrams)

  // Untrained relative weight of each metadata segment (cells dominate, as
  // they do in plain mean pooling over a mostly-cells token sequence).
  private val wTitle = 0.45f
  private val wColname = 0.35f
  private val wStat = 0.25f
  private val wContext = 0.35f

  // Fixed seeded feed-forward weights over the cell segment: a smooth
  // deterministic mixing map standing in for frozen pre-trained FFN blocks.
  // Stored transposed, one row per input coordinate: ffnWt(c)(r) = W(r, c),
  // drawn in W's row-major order (see DESIGN.md, "Encoder kernels").
  @transient private lazy val ffnWt: Array[Array[Float]] = {
    val r = new scala.util.Random(cfg.seed ^ 0xffeL)
    val scale = (1.0 / math.sqrt(dCell)).toFloat
    val wt = Array.ofDim[Float](dCell, dCell)
    var row = 0
    while (row < dCell) {
      var c = 0
      while (c < dCell) { wt(c)(row) = (r.nextGaussian() * scale).toFloat; c += 1 }
      row += 1
    }
    wt
  }

  override def embed(col: LakeColumn): Array[Float] = {
    val pooled = baseFeatures(col)
    head match {
      case Some(h) => h(pooled)
      case None => pooled
    }
  }

  /** Pooled PLM features before any fine-tuned head (unit norm): what
    * `embed` returns without a head, and so what the trainer featurizes.
    */
  private def baseFeatures(col: LakeColumn): Array[Float] = {
    val r = ctx.render(col)
    val out = new Array[Float](cfg.dim)
    val cellVec = encodeCells(r.cells)
    System.arraycopy(cellVec, 0, out, cellOff, dCell)
    def put(text: Option[String], emb: HashEmbedder, off: Int, w: Float): Unit =
      text.foreach { t =>
        val v = emb.embedText(Tokenizer.tokenize(t))
        var i = 0
        while (i < v.length) { out(off + i) = w * v(i); i += 1 }
      }
    put(r.title, titleEmb, titleOff, wTitle)
    put(r.colname, colnameEmb, colnameOff, wColname)
    put(r.stat, statEmb, statOff, wStat)
    put(r.context, contextEmb, contextOff, wContext)
    VecOps.normalizeInPlace(out)
    out
  }

  /** Transformer-style encoding of the cell content (exposed for tests):
    * hashed token embeddings, positional mixing, self-attention and
    * feed-forward layers, mean pooling. Unit norm, length dCell.
    */
  def encodeCells(cells: Seq[String]): Array[Float] = {
    // Flatten to tokens, remembering each token's source cell for pooling.
    val toks = scala.collection.mutable.ArrayBuffer.empty[String]
    val wts = scala.collection.mutable.ArrayBuffer.empty[Float]
    val it = cells.iterator
    while (it.hasNext && toks.length < ctx.maxTokens) {
      val cell = it.next()
      val wIdf =
        if (!idfPooling) 1.0f
        else {
          // Inverse document frequency of the cell value over the target
          // repository: ubiquitous cells carry no discriminative signal.
          val df = ctx.frequency.getOrElse(cell, 1L)
          (1.0 / math.sqrt(1.0 + df)).toFloat
        }
      val ts = Tokenizer.tokenize(cell)
      // Cell-mean pooling: each *cell* carries the same total pooling mass
      // regardless of its token count — joinability (Eq. 1) counts cells,
      // not words, and the PLM's attention is simulated as having learned
      // the cell delimiters.
      if (ts.isEmpty) { toks += cell; wts += wIdf }
      else {
        val w = wIdf / ts.length
        ts.foreach { t => if (toks.length < ctx.maxTokens) { toks += t; wts += w } }
      }
    }
    if (toks.isEmpty) { toks += ""; wts += 1.0f }

    val L = toks.length
    var vecs = new Array[Array[Float]](L)
    var i = 0
    while (i < L) {
      val v = new Array[Float](dCell)
      cellEmb.embedTokenInto(toks(i), v)
      VecOps.normalizeInPlace(v)
      positionalMix(v, i)
      vecs(i) = v
      i += 1
    }

    var layer = 0
    while (layer < cfg.attnLayers) { vecs = attentionLayer(vecs); layer += 1 }
    layer = 0
    while (layer < cfg.ffnLayers) { ffnLayer(vecs); layer += 1 }

    // (Weighted) mean pooling + normalize, as sentence-transformers does.
    val out = new Array[Float](dCell)
    var wSum = 0.0f
    i = 0
    while (i < L) { wSum += wts(i); i += 1 }
    i = 0
    while (i < L) { VecOps.axpy(wts(i) / wSum, vecs(i), out); i += 1 }
    VecOps.normalizeInPlace(out)
    out
  }

  /** Positional mixing: a rotation whose angle grows with position, plus an
    * amplitude modulation whose phase depends on the *token* — the coupling
    * term is what survives mean pooling (a pure linear rotation of every
    * token almost cancels when the same multiset of tokens is pooled), so it
    * is what makes the encoder order-sensitive like a real PLM.
    * posSensitivity = 0 makes the encoder order-insensitive.
    */
  private def positionalMix(v: Array[Float], pos: Int): Unit = {
    if (cfg.posSensitivity == 0.0) return
    val theta = cfg.posSensitivity * (math.min(pos, 96) / 96.0) * (math.Pi / 3)
    val c = math.cos(theta).toFloat
    val s = math.sin(theta).toFloat
    val d = v.length
    // Token-dependent phase for the position-amplitude coupling.
    val phase = (v(0) * 37.0 + v(d / 2) * 17.0) * 10.0
    val amp = (1.0 + cfg.posSensitivity * 0.25 *
      math.sin(2.0 * math.Pi * pos / 7.0 + phase)).toFloat
    // In place: each v(i) reads v(i + 1) before it is overwritten, and the
    // wrap-around term reads the saved v(0).
    val v0 = v(0)
    var i = 0
    while (i < d - 1) { v(i) = amp * (c * v(i) + s * v(i + 1)); i += 1 }
    v(d - 1) = amp * (c * v(d - 1) + s * v0)
  }

  /** One softmax self-attention mixing layer with a residual. O(L²·d).
    *
    * Scores are built lane-wise: with kt(c)(j) = vecs(j)(c), every score has
    * its own accumulator, still summed over c in order, so the inner loop
    * over j is vectorizable and the result is bit-identical to a per-pair
    * dot product. Query rows go in blocks of 4, so each `kt(c)` pass feeds
    * four score rows and each `vecs(j)` pass four outputs; lanes past the
    * last row repeat it and their results are dropped. Each pass folds two
    * steps of the sum, `(s + a·x) + b·y`, which rounds exactly as two
    * one-step passes; an odd d or L ends in a one-step tail.
    */
  private def attentionLayer(vecs: Array[Array[Float]]): Array[Array[Float]] = {
    val L = vecs.length
    val d = dCell
    val invSqrtD = (2.0 / math.sqrt(d)).toFloat // sharpened scores
    val kt = Array.ofDim[Float](d, L)
    var j = 0
    while (j < L) {
      val v = vecs(j)
      var c = 0
      while (c < d) { kt(c)(j) = v(c); c += 1 }
      j += 1
    }
    val out = new Array[Array[Float]](L)
    // Turns raw scores into the value-mix weights softmax(s · invSqrtD) / 2.
    def mixWeights(s: Array[Float]): Unit = {
      var mx = Float.NegativeInfinity
      var j = 0
      while (j < L) {
        s(j) *= invSqrtD
        if (s(j) > mx) mx = s(j)
        j += 1
      }
      var z = 0.0f
      j = 0
      while (j < L) { s(j) = math.exp((s(j) - mx).toDouble).toFloat; z += s(j); j += 1 }
      j = 0
      while (j < L) { s(j) = s(j) / z * 0.5f; j += 1 }
    }
    // Rows b until b + 4; `sc` holds 4 score rows of length L.
    def block(b: Int, sc: Array[Array[Float]]): Unit = {
      val q0 = vecs(b)
      val q1 = vecs(math.min(b + 1, L - 1))
      val q2 = vecs(math.min(b + 2, L - 1))
      val q3 = vecs(math.min(b + 3, L - 1))
      val s0 = sc(0); val s1 = sc(1); val s2 = sc(2); val s3 = sc(3)
      sc.foreach(java.util.Arrays.fill(_, 0.0f))
      var j = 0
      var c = 0
      while (c + 1 < d) {
        val k = kt(c); val k1 = kt(c + 1)
        val a0 = q0(c); val a1 = q1(c); val a2 = q2(c); val a3 = q3(c)
        val b0 = q0(c + 1); val b1 = q1(c + 1); val b2 = q2(c + 1); val b3 = q3(c + 1)
        j = 0
        while (j < L) {
          val kj = k(j); val k1j = k1(j)
          s0(j) = s0(j) + a0 * kj + b0 * k1j; s1(j) = s1(j) + a1 * kj + b1 * k1j
          s2(j) = s2(j) + a2 * kj + b2 * k1j; s3(j) = s3(j) + a3 * kj + b3 * k1j
          j += 1
        }
        c += 2
      }
      if (c < d) { // odd d: the last step
        val k = kt(c)
        val a0 = q0(c); val a1 = q1(c); val a2 = q2(c); val a3 = q3(c)
        j = 0
        while (j < L) {
          val kj = k(j)
          s0(j) += a0 * kj; s1(j) += a1 * kj; s2(j) += a2 * kj; s3(j) += a3 * kj
          j += 1
        }
      }
      sc.foreach(mixWeights)
      val os = Array.ofDim[Float](4, d)
      val o0 = os(0); val o1 = os(1); val o2 = os(2); val o3 = os(3)
      j = 0
      while (j + 1 < L) {
        val x = vecs(j); val x1 = vecs(j + 1)
        val p0 = s0(j); val p1 = s1(j); val p2 = s2(j); val p3 = s3(j)
        val u0 = s0(j + 1); val u1 = s1(j + 1); val u2 = s2(j + 1); val u3 = s3(j + 1)
        var r = 0
        while (r < d) {
          val xr = x(r); val x1r = x1(r)
          o0(r) = o0(r) + p0 * xr + u0 * x1r; o1(r) = o1(r) + p1 * xr + u1 * x1r
          o2(r) = o2(r) + p2 * xr + u2 * x1r; o3(r) = o3(r) + p3 * xr + u3 * x1r
          r += 1
        }
        j += 2
      }
      if (j < L) { // odd L: the last step
        val x = vecs(j)
        val p0 = s0(j); val p1 = s1(j); val p2 = s2(j); val p3 = s3(j)
        var r = 0
        while (r < d) {
          val xr = x(r)
          o0(r) += p0 * xr; o1(r) += p1 * xr; o2(r) += p2 * xr; o3(r) += p3 * xr
          r += 1
        }
      }
      var i = b
      while (i < math.min(b + 4, L)) {
        val o = os(i - b)
        VecOps.axpy(0.5f, vecs(i), o)
        VecOps.normalizeInPlace(o)
        out(i) = o
        i += 1
      }
    }
    val blocks = (L + 3) / 4
    if (parallel && L >= 16)
      java.util.stream.IntStream.range(0, blocks).parallel()
        .forEach(bi => block(4 * bi, Array.ofDim[Float](4, L)))
    else {
      val sc = Array.ofDim[Float](4, L)
      var bi = 0
      while (bi < blocks) { block(4 * bi, sc); bi += 1 }
    }
    out
  }

  /** One fixed-weight feed-forward layer with tanh and residual, in place.
    * O(L·d²). Each output coordinate r has its own accumulator s(r), summed
    * over c in order from the transposed weight rows, so the inner loop over
    * r is vectorizable and the result is bit-identical to a row-by-row
    * mat-vec. Tokens go in blocks of 4, so each weight row `ffnWt(c)` is
    * read once per block; lanes past the last token repeat it and their
    * sums are dropped. Each pass folds two weight rows, as in
    * [[attentionLayer]], with a one-step tail for odd d.
    */
  private def ffnLayer(vecs: Array[Array[Float]]): Unit = {
    val d = dCell
    val wt = ffnWt
    val L = vecs.length
    // Tokens b until b + 4; `sb` holds 4 sum rows of length d.
    def block(b: Int, sb: Array[Array[Float]]): Unit = {
      val v0 = vecs(b)
      val v1 = vecs(math.min(b + 1, L - 1))
      val v2 = vecs(math.min(b + 2, L - 1))
      val v3 = vecs(math.min(b + 3, L - 1))
      val s0 = sb(0); val s1 = sb(1); val s2 = sb(2); val s3 = sb(3)
      sb.foreach(java.util.Arrays.fill(_, 0.0f))
      var c = 0
      while (c + 1 < d) {
        val w = wt(c); val w1 = wt(c + 1)
        val a0 = v0(c); val a1 = v1(c); val a2 = v2(c); val a3 = v3(c)
        val b0 = v0(c + 1); val b1 = v1(c + 1); val b2 = v2(c + 1); val b3 = v3(c + 1)
        var r = 0
        while (r < d) {
          val wr = w(r); val w1r = w1(r)
          s0(r) = s0(r) + wr * a0 + w1r * b0; s1(r) = s1(r) + wr * a1 + w1r * b1
          s2(r) = s2(r) + wr * a2 + w1r * b2; s3(r) = s3(r) + wr * a3 + w1r * b3
          r += 1
        }
        c += 2
      }
      if (c < d) { // odd d: the last step
        val w = wt(c)
        val a0 = v0(c); val a1 = v1(c); val a2 = v2(c); val a3 = v3(c)
        var r = 0
        while (r < d) {
          val wr = w(r)
          s0(r) += wr * a0; s1(r) += wr * a1; s2(r) += wr * a2; s3(r) += wr * a3
          r += 1
        }
      }
      var i = b
      while (i < math.min(b + 4, L)) {
        val v = vecs(i)
        val s = sb(i - b)
        var r = 0
        while (r < d) { v(r) = v(r) + 0.15f * PlmEmbedder.tanh(s(r)); r += 1 }
        VecOps.normalizeInPlace(v)
        i += 1
      }
    }
    val blocks = (L + 3) / 4
    if (parallel && L >= 8)
      java.util.stream.IntStream.range(0, blocks).parallel()
        .forEach(bi => block(4 * bi, Array.ofDim[Float](4, d)))
    else {
      val sb = Array.ofDim[Float](4, d)
      var bi = 0
      while (bi < blocks) { block(4 * bi, sb); bi += 1 }
    }
  }
}

object PlmEmbedder {
  private final val PolyBelow = 0.25
  private final val Slack = 3.637978807091713e-12 // 2^-38
  // Odd Taylor coefficients of tanh, C3 for x³ through C19 for x¹⁹; each
  // quotient of two exact doubles is the correctly rounded coefficient.
  private final val C3 = -1.0 / 3
  private final val C5 = 2.0 / 15
  private final val C7 = -17.0 / 315
  private final val C9 = 62.0 / 2835
  private final val C11 = -1382.0 / 155925
  private final val C13 = 21844.0 / 6081075
  private final val C15 = -929569.0 / 638512875
  private final val C17 = 6404582.0 / 10854718875.0
  private final val C19 = -443861162.0 / 1856156927625.0

  /** `math.tanh(x.toDouble).toFloat`, bit for bit, without the native call
    * for almost every input (see [[tanhFast]] and DESIGN §6).
    */
  private[embed] def tanh(x: Float): Float = {
    val f = tanhFast(x)
    if (f == f) f else math.tanh(x.toDouble).toFloat
  }

  /** `math.tanh(x.toDouble).toFloat` where a cheap double estimate t decides
    * it, else NaN (always NaN for a NaN input). t is within about
    * 2⁻⁵⁰·|tanh x|; if t ± |t|·2⁻³⁸ round to the same float, so does
    * fdlibm's tanh, which is within 1 ulp of the true value (Ziv's rounding
    * test).
    */
  private[embed] def tanhFast(x: Float): Float = {
    val a = math.abs(x.toDouble)
    if (a > 20) return if (x > 0) 1.0f else -1.0f
    val t = tanhEstimate(x)
    val slack = math.abs(t) * Slack
    val lo = (t - slack).toFloat // −0.0 − 0.0 stays −0.0
    if (lo == (t + slack).toFloat) lo else Float.NaN
  }

  /** The double estimate t of tanh x for |x| ≤ 20 that [[tanhFast]] tests.
    * Below 1/4 it is the Taylor polynomial through x¹⁹ in Estrin form,
    * x·P(x²), with no `Math.exp` call; the factored form maps −0.0 to −0.0.
    * Above it is ±(e − 1)/(e + 1) with e = `Math.exp(2|x|)`.
    */
  private[embed] def tanhEstimate(x: Float): Double = {
    val xd = x.toDouble
    val a = math.abs(xd)
    if (a < PolyBelow) {
      val x2 = xd * xd
      val x4 = x2 * x2
      val x8 = x4 * x4
      val p1 = 1 + C3 * x2
      val p5 = C5 + C7 * x2
      val p9 = C9 + C11 * x2
      val p13 = C13 + C15 * x2
      val p17 = C17 + C19 * x2
      val q1 = p1 + p5 * x4
      val q9 = p9 + p13 * x4
      xd * ((q1 + q9 * x8) + p17 * (x8 * x8))
    } else {
      val e = Math.exp(2 * a)
      val u = (e - 1) / (e + 1)
      if (x < 0) -u else u
    }
  }
}
