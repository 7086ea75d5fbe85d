package repro.train

import repro.embed.VecOps
import scala.util.Random

/** Metric-learning trainer for DeepJoin (Section 4.2).
  *
  * Minimizes the multiple-negatives ranking loss over batches of 32 positive
  * pairs {(Xᵢ, Yᵢ)} with cosine scoring scaled by 20, treating every
  * (Xᵢ, Yⱼ), j ≠ i in a batch as a negative (in-batch negatives):
  *
  *   L = -1/N Σᵢ [ S(Xᵢ,Yᵢ) − log Σⱼ exp(S(Xᵢ,Yⱼ)) ],  S = 20·cos.
  *
  * Gradients are derived by hand through the cosine, the L2 normalization,
  * and the head's gains; parameters are updated with Adam and decoupled
  * (AdamW-style) weight decay 0.01, as the paper trains. The PLM features
  * are frozen (cached per column), which is what makes the ablation sweeps
  * over contextualization and shuffle rate tractable.
  */
object Trainer {

  private val BatchSize = 32
  private val Scale = 20.0f
  private val WeightDecay = 0.01

  final case class Config(
      epochs: Int = 3,
      lr: Double = 1e-3,
      /** Number of final epochs batched group-first (hard in-batch
        * negatives); the earlier ones use global shuffling (easy negatives),
        * so the model both separates domains and discriminates within them.
        */
      hardEpochs: Int = 0,
      seed: Long = 0x7a11L) {
    /** Whether epoch `e` (0-based) is batched group-first. */
    def grouped(e: Int): Boolean = e >= epochs - hardEpochs
  }

  /** One training example: features of a positive pair plus the identities
    * needed for negative masking and hard-negative batching.
    *
    * @param group batching key (the x column's domain): examples are batched
    *              group-first so in-batch negatives are hard (same-domain,
    *              different provenance) rather than trivial cross-domain
    *              ones. With dense positive structure the paper's "very
    *              small chance" that an in-batch negative is actually
    *              joinable no longer holds, so known positives are masked
    *              out of the softmax (see [[step]]).
    */
  final case class Example(x: Array[Float], y: Array[Float],
                           xId: Long, yId: Long, group: Int)

  /** Train a head on positive examples; returns (head, per-epoch loss).
    *
    * @param knownPositives ordered (xId, yId) pairs with jn ≥ t, used to
    *                       mask false negatives inside a batch
    */
  def train(examples: IndexedSeq[Example], dIn: Int,
            cfg: Config = Config(),
            knownPositives: Set[(Long, Long)] = Set.empty): (DiagonalHead, Seq[Double]) = {
    require(examples.nonEmpty, "no training examples")
    val head = new DiagonalHead(dIn)
    val adam = new Adam(head.parameters.map(_.length), cfg.lr, weightDecay = WeightDecay)
    val rnd = new Random(cfg.seed)
    val losses = scala.collection.mutable.ArrayBuffer.empty[Double]

    var epoch = 0
    while (epoch < cfg.epochs) {
      // Alternate between global shuffling (easy cross-domain negatives)
      // and group-first ordering (hard same-domain negatives).
      val order =
        if (cfg.grouped(epoch))
          rnd.shuffle(
            examples.indices.groupBy(i => examples(i).group).toVector.sortBy(_._1)
          ).flatMap { case (_, idxs) => rnd.shuffle(idxs.toVector) }
        else rnd.shuffle(examples.indices.toVector)
      var epochLoss = 0.0
      var nBatches = 0
      order.grouped(BatchSize).foreach { idxs =>
        if (idxs.size >= 2) { // need in-batch negatives
          epochLoss += step(head, adam, idxs.map(examples), knownPositives)
          nBatches += 1
        }
      }
      losses += (if (nBatches > 0) epochLoss / nBatches else 0.0)
      epoch += 1
    }
    (head, losses.toSeq)
  }

  /** One batch step; returns the batch loss. */
  private[train] def step(head: DiagonalHead, adam: Adam,
                          batch: Seq[Example],
                          knownPositives: Set[(Long, Long)]): Double = {
    val n = batch.size
    val fx = batch.map(p => head.forward(p.x)) // (e, u) for X side
    val fy = batch.map(p => head.forward(p.y))
    val s = Scale

    // allowed(i)(j): Y_j participates in row i's softmax. The diagonal is
    // the positive; a known-positive or same-target (X_i, Y_j) is excluded.
    val allowed = Array.tabulate(n, n) { (i, j) =>
      i == j ||
        (batch(i).yId != batch(j).yId &&
          !knownPositives.contains((batch(i).xId, batch(j).yId)))
    }

    // Scores and row-softmax over the allowed set.
    val p = Array.ofDim[Float](n, n)
    var loss = 0.0
    var i = 0
    while (i < n) {
      var mx = Float.NegativeInfinity
      var j = 0
      while (j < n) {
        if (allowed(i)(j)) {
          p(i)(j) = s * VecOps.dot(fx(i)._2, fy(j)._2)
          if (p(i)(j) > mx) mx = p(i)(j)
        }
        j += 1
      }
      var z = 0.0
      j = 0
      while (j < n) {
        if (allowed(i)(j)) z += math.exp((p(i)(j) - mx).toDouble)
        j += 1
      }
      loss += -(p(i)(i) - mx - math.log(z))
      j = 0
      while (j < n) {
        p(i)(j) =
          if (allowed(i)(j)) (math.exp((p(i)(j) - mx).toDouble) / z).toFloat
          else 0.0f
        j += 1
      }
      i += 1
    }
    loss /= n

    // dL/dS_ij = (p_ij - 1{i=j}) / n ; dL/du_i = s Σ_j dS_ij v_j, etc.
    val invN = 1.0f / n
    val gU = Array.fill(n)(new Array[Float](head.dOut))
    val gV = Array.fill(n)(new Array[Float](head.dOut))
    i = 0
    while (i < n) {
      var j = 0
      while (j < n) {
        if (allowed(i)(j)) {
          val g = (p(i)(j) - (if (i == j) 1.0f else 0.0f)) * invN * s
          VecOps.axpy(g, fy(j)._2, gU(i))
          VecOps.axpy(g, fx(i)._2, gV(j))
        }
        j += 1
      }
      i += 1
    }

    val grads = head.parameters.map(w => new Array[Float](w.length))
    i = 0
    while (i < n) {
      head.backward(fx(i), gU(i), grads)
      head.backward(fy(i), gV(i), grads)
      i += 1
    }
    adam.update(head.parameters, grads)
    loss
  }

}

/** Adam optimizer over flat parameter arrays, with decoupled (AdamW-style)
  * weight decay.
  */
final class Adam(shapes: Seq[Int], lr: Double, beta1: Double = 0.9,
                 beta2: Double = 0.999, eps: Double = 1e-8,
                 weightDecay: Double = 0.0) {
  private val m = shapes.map(new Array[Float](_))
  private val v = shapes.map(new Array[Float](_))
  private var t = 0

  def update(params: Seq[Array[Float]], grads: Seq[Array[Float]]): Unit = {
    t += 1
    val bc1 = 1.0 - math.pow(beta1, t)
    val bc2 = 1.0 - math.pow(beta2, t)
    params.indices.foreach { p =>
      val w = params(p); val g = grads(p); val mp = m(p); val vp = v(p)
      var i = 0
      while (i < w.length) {
        mp(i) = (beta1 * mp(i) + (1 - beta1) * g(i)).toFloat
        vp(i) = (beta2 * vp(i) + (1 - beta2) * g(i) * g(i)).toFloat
        val mHat = mp(i) / bc1
        val vHat = vp(i) / bc2
        w(i) -= (lr * (mHat / (math.sqrt(vHat) + eps) + weightDecay * w(i))).toFloat
        i += 1
      }
    }
  }
}
