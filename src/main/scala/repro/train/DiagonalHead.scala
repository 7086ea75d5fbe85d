package repro.train

import repro.embed.{EmbeddingHead, VecOps}

/** The fine-tuned part of DeepJoin: a per-dimension gain head over the
  * frozen PLM's pooled features, e(x) = normalize(x ⊙ exp(g)), g trainable.
  *
  * With only dIn parameters this is the right capacity for fine-tuning on a
  * few thousand positive pairs: it expresses exactly "feature re-weighting"
  * — amplifying the metadata segments and informative content buckets,
  * suppressing noise — and cannot memorize individual pairs the way a dense
  * projection can. The untrained head (g = 0) reproduces the base model.
  *
  * [[Trainer]] owns the gradients and Adam state; the hand-derived
  * [[backward]] accumulates into them.
  */
final class DiagonalHead(val dIn: Int) extends EmbeddingHead {
  override def dOut: Int = dIn
  val g: Array[Float] = new Array[Float](dIn) // gains are exp(g), init 1

  /** Forward pass with the intermediates backprop needs:
    * (pre-normalization output, unit output).
    */
  def forward(x: Array[Float]): (Array[Float], Array[Float]) = {
    val e = new Array[Float](dIn)
    var i = 0
    while (i < dIn) { e(i) = x(i) * math.exp(g(i).toDouble).toFloat; i += 1 }
    val u = VecOps.copy(e)
    VecOps.normalizeInPlace(u)
    (e, u)
  }

  override def apply(x: Array[Float]): Array[Float] = forward(x)._2

  /** Backprop dL/du (gradient w.r.t. the unit output) through the head;
    * accumulates parameter gradients into `grads` (same shapes as
    * [[parameters]]).
    */
  def backward(fwd: (Array[Float], Array[Float]),
               gradU: Array[Float], grads: Seq[Array[Float]]): Unit = {
    val (e, u) = fwd
    // dL/de from dL/du through u = e/||e||: (g − (u·g)u) / ||e||.
    val normE = math.max(VecOps.norm(e), 1e-6f)
    val uDotG = VecOps.dot(u, gradU)
    val gG = grads.head
    var i = 0
    while (i < dIn) {
      val gE = (gradU(i) - uDotG * u(i)) / normE
      gG(i) += gE * e(i) // de/dg = x·exp(g) = e
      i += 1
    }
  }

  def parameters: Seq[Array[Float]] = Seq(g)
}
