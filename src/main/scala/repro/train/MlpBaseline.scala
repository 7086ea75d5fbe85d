package repro.train

import repro.embed.{ColumnEmbedder, FastTextEmbedder, VecOps}
import repro.lake.LakeColumn
import scala.util.Random

/** The paper's MLP baseline: a perceptron on fastText column embeddings,
  * trained as a regression from a pair of embeddings to their joinability;
  * the last hidden layer is then used as the column embedding.
  *
  * Implemented as a siamese regressor so a single-column embedding exists:
  * h(x) = tanh(W1 x + b1);  ĵn = σ(w · (h(x) ⊙ h(y)) + b),  MSE loss.
  * Trained on the positive pairs plus an equal number of random pairs
  * labeled with their true (usually near-zero) joinability.
  */
final class MlpBaseline private (
    base: FastTextEmbedder,
    w1: Array[Float], b1: Array[Float],
    val hidden: Int) extends ColumnEmbedder {

  override val name = "MLP"
  override def dim: Int = hidden

  override def embed(col: LakeColumn): Array[Float] = {
    val h = MlpBaseline.hiddenOf(w1, b1, base.embed(col))
    VecOps.normalizeInPlace(h)
    h
  }
}

object MlpBaseline {

  /** The hidden layer tanh(W1·x + b1), with W1 row-major (|b1| × |x|). */
  private def hiddenOf(w1: Array[Float], b1: Array[Float], x: Array[Float]): Array[Float] = {
    val h = new Array[Float](b1.length)
    var r = 0
    while (r < b1.length) {
      var s = b1(r)
      val off = r * x.length
      var c = 0
      while (c < x.length) { s += w1(off + c) * x(c); c += 1 }
      h(r) = math.tanh(s.toDouble).toFloat
      r += 1
    }
    h
  }

  final case class Config(
      hidden: Int = 0, // <= 0: same as the input dimension (identity init)
      epochs: Int = 3,
      lr: Double = 1e-3,
      seed: Long = 0x317L)

  /** Train on (xFeat, yFeat, jn) triples; negatives must be included. */
  def train(base: FastTextEmbedder,
            examples: IndexedSeq[(Array[Float], Array[Float], Double)],
            cfg: Config = Config()): MlpBaseline = {
    require(examples.nonEmpty, "no MLP training examples")
    val dIn = base.dim
    val h = if (cfg.hidden <= 0) dIn else cfg.hidden
    val rnd = new Random(cfg.seed)
    // Identity-dominant init (when shapes allow): the untrained hidden layer
    // then reproduces the fastText embedding (tanh is near-linear on small
    // coordinates) and the regression refines it, rather than starting from
    // a random projection that would have to re-learn the whole geometry.
    val w1 = Array.tabulate(h * dIn) { i =>
      val r = i / dIn; val c = i % dIn
      val noise = (rnd.nextGaussian() * 0.02 * math.sqrt(1.0 / dIn)).toFloat
      if (r == c) 2.0f + noise else noise
    }
    val b1 = new Array[Float](h)
    val w = Array.fill(h)((rnd.nextGaussian() * 0.1).toFloat)
    var b = 0.0f
    val adam = new Adam(Seq(w1.length, b1.length, w.length, 1), cfg.lr)

    var epoch = 0
    while (epoch < cfg.epochs) {
      val order = rnd.shuffle(examples.indices.toVector)
      order.grouped(32).foreach { idxs =>
        val gW1 = new Array[Float](w1.length)
        val gB1 = new Array[Float](b1.length)
        val gW = new Array[Float](w.length)
        val gB = new Array[Float](1)
        idxs.foreach { i =>
          val (x, y, jn) = examples(i)
          val hx = hiddenOf(w1, b1, x); val hy = hiddenOf(w1, b1, y)
          val prod = new Array[Float](h)
          var r = 0
          var z = b.toDouble
          while (r < h) { prod(r) = hx(r) * hy(r); z += w(r) * prod(r); r += 1 }
          val pred = 1.0 / (1.0 + math.exp(-z))
          // MSE: dL/dz = 2 (pred - jn) * pred (1 - pred)
          val dz = (2.0 * (pred - jn) * pred * (1.0 - pred) / idxs.size).toFloat
          gB(0) += dz
          r = 0
          while (r < h) {
            gW(r) += dz * prod(r)
            // through prod into both towers
            val dhx = dz * w(r) * hy(r) * (1.0f - hx(r) * hx(r))
            val dhy = dz * w(r) * hx(r) * (1.0f - hy(r) * hy(r))
            val off = r * dIn
            var c = 0
            while (c < dIn) {
              gW1(off + c) += dhx * x(c) + dhy * y(c)
              c += 1
            }
            gB1(r) += dhx + dhy
            r += 1
          }
        }
        val bArr = Array(b)
        adam.update(Seq(w1, b1, w, bArr), Seq(gW1, gB1, gW, gB))
        b = bArr(0)
      }
      epoch += 1
    }
    new MlpBaseline(base, w1, b1, h)
  }

  /** Convenience: build examples from positives plus random negatives. */
  def trainFromPairs(base: FastTextEmbedder,
                     positives: Seq[TrainingData.Pair],
                     allColumns: Seq[LakeColumn],
                     jnOf: (LakeColumn, LakeColumn) => Double,
                     cfg: Config = Config()): MlpBaseline = {
    val rnd = new Random(cfg.seed ^ 0xabcL)
    val featCache = new java.util.HashMap[Long, Array[Float]]()
    def feat(c: LakeColumn): Array[Float] = {
      var f = featCache.get(c.id)
      if (f == null) { f = base.embed(c); featCache.put(c.id, f) }
      f
    }
    val pos = positives.map(p => (base.embed(p.x), feat(p.y), p.jn))
    val negs = (0 until positives.size).map { _ =>
      val a = allColumns(rnd.nextInt(allColumns.size))
      val bCol = allColumns(rnd.nextInt(allColumns.size))
      (feat(a), feat(bCol), jnOf(a, bCol))
    }
    train(base, (pos ++ negs).toIndexedSeq, cfg)
  }
}
