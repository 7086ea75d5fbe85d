package repro.embed

import repro.lake.LakeColumn
import repro.text.{Contextualizer, Tokenizer}

/** Test oracle: [[PlmEmbedder]]'s encoder as it was before its kernels were
  * reorganized for vectorization — one scalar dot product per attention
  * score and per FFN output, the FFN weight as one flat row-major array, and
  * a `shifted` copy in the positional mix. The code is kept verbatim (only
  * comments are dropped), so [[PlmKernelOracleSpec]] can assert that the
  * production kernels reproduce it bit for bit.
  */
final class ReferencePlmEmbedder(
    val cfg: PlmConfig,
    val ctx: Contextualizer,
    val head: Option[EmbeddingHead] = None,
    val parallel: Boolean = false,
    val idfPooling: Boolean = false) extends Serializable {

  private val dMeta = cfg.dim / 10
  private val dStat = cfg.dim / 20
  private val titleOff = 0
  private val colnameOff = dMeta
  private val statOff = 2 * dMeta
  private val contextOff = 2 * dMeta + dStat
  private val cellOff = 2 * dMeta + 2 * dStat
  val dCell: Int = cfg.dim - cellOff

  private val cellEmb =
    new HashEmbedder(dCell, cfg.seed, useCharNgrams = cfg.charNgrams,
      minN = cfg.minNgram, maxN = math.max(cfg.minNgram, cfg.maxNgram))
  private val titleEmb = new HashEmbedder(dMeta, cfg.seed ^ 0x7171L, cfg.charNgrams)
  private val colnameEmb = new HashEmbedder(dMeta, cfg.seed ^ 0xc01L, cfg.charNgrams)
  private val statEmb = new HashEmbedder(dStat, cfg.seed ^ 0x57a7L, useCharNgrams = false)
  private val contextEmb = new HashEmbedder(dStat, cfg.seed ^ 0xc0deL, cfg.charNgrams)

  private val wTitle = 0.45f
  private val wColname = 0.35f
  private val wStat = 0.25f
  private val wContext = 0.35f

  @transient private lazy val ffnW: Array[Float] = {
    val r = new scala.util.Random(cfg.seed ^ 0xffeL)
    val scale = (1.0 / math.sqrt(dCell)).toFloat
    Array.fill(dCell * dCell)((r.nextGaussian() * scale).toFloat)
  }

  def embed(col: LakeColumn): Array[Float] = {
    val pooled = baseFeatures(col)
    head match {
      case Some(h) => h(pooled)
      case None => pooled
    }
  }

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

  def encodeCells(cells: Seq[String]): Array[Float] = {
    val toks = scala.collection.mutable.ArrayBuffer.empty[String]
    val wts = scala.collection.mutable.ArrayBuffer.empty[Float]
    val it = cells.iterator
    while (it.hasNext && toks.length < ctx.maxTokens) {
      val cell = it.next()
      val wIdf =
        if (!idfPooling) 1.0f
        else {
          val df = ctx.frequency.getOrElse(cell, 1L)
          (1.0 / math.sqrt(1.0 + df)).toFloat
        }
      val ts = Tokenizer.tokenize(cell)
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

    val out = new Array[Float](dCell)
    var wSum = 0.0f
    i = 0
    while (i < L) { wSum += wts(i); i += 1 }
    i = 0
    while (i < L) { VecOps.axpy(wts(i) / wSum, vecs(i), out); i += 1 }
    VecOps.normalizeInPlace(out)
    out
  }

  private def positionalMix(v: Array[Float], pos: Int): Unit = {
    if (cfg.posSensitivity == 0.0) return
    val theta = cfg.posSensitivity * (math.min(pos, 96) / 96.0) * (math.Pi / 3)
    val c = math.cos(theta).toFloat
    val s = math.sin(theta).toFloat
    val d = v.length
    val phase = (v(0) * 37.0 + v(d / 2) * 17.0) * 10.0
    val amp = (1.0 + cfg.posSensitivity * 0.25 *
      math.sin(2.0 * math.Pi * pos / 7.0 + phase)).toFloat
    val shifted = new Array[Float](d)
    var i = 0
    while (i < d) { shifted(i) = v((i + 1) % d); i += 1 }
    i = 0
    while (i < d) { v(i) = amp * (c * v(i) + s * shifted(i)); i += 1 }
  }

  private def attentionLayer(vecs: Array[Array[Float]]): Array[Array[Float]] = {
    val L = vecs.length
    val d = dCell
    val invSqrtD = (2.0 / math.sqrt(d)).toFloat
    val out = new Array[Array[Float]](L)
    val row = (i: Int) => {
      val scores = new Array[Float](L)
      var mx = Float.NegativeInfinity
      var j = 0
      while (j < L) {
        scores(j) = VecOps.dot(vecs(i), vecs(j)) * invSqrtD
        if (scores(j) > mx) mx = scores(j)
        j += 1
      }
      var z = 0.0f
      j = 0
      while (j < L) { scores(j) = math.exp((scores(j) - mx).toDouble).toFloat; z += scores(j); j += 1 }
      val o = new Array[Float](d)
      j = 0
      while (j < L) { VecOps.axpy(scores(j) / z * 0.5f, vecs(j), o); j += 1 }
      VecOps.axpy(0.5f, vecs(i), o)
      VecOps.normalizeInPlace(o)
      out(i) = o
    }
    if (parallel && L >= 16)
      java.util.stream.IntStream.range(0, L).parallel().forEach(i => row(i))
    else {
      var i = 0
      while (i < L) { row(i); i += 1 }
    }
    out
  }

  private def ffnLayer(vecs: Array[Array[Float]]): Unit = {
    val d = dCell
    val w = ffnW
    val tok = (i: Int) => {
      val v = vecs(i)
      val o = new Array[Float](d)
      var r = 0
      while (r < d) {
        var s = 0.0f
        val off = r * d
        var c = 0
        while (c < d) { s += w(off + c) * v(c); c += 1 }
        o(r) = v(r) + 0.15f * math.tanh(s.toDouble).toFloat
        r += 1
      }
      VecOps.normalizeInPlace(o)
      vecs(i) = o
    }
    if (parallel && vecs.length >= 8)
      java.util.stream.IntStream.range(0, vecs.length).parallel().forEach(i => tok(i))
    else {
      var i = 0
      while (i < vecs.length) { tok(i); i += 1 }
    }
  }
}
