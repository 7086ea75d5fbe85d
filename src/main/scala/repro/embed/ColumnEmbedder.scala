package repro.embed

import repro.lake.LakeColumn
import repro.text.Tokenizer

/** A column encoder: fixed-length unit vector per column.
  *
  * All of the paper's embedding methods (fastText, BERT, MPNet, TaBERT, MLP,
  * DeepJoin) implement this trait; the subsequent ANN indexing and search is
  * then identical across methods, as in the paper's experimental setup.
  */
trait ColumnEmbedder extends Serializable {
  def name: String
  def dim: Int

  /** Unit-norm embedding of the column. */
  def embed(col: LakeColumn): Array[Float]
}

/** The fastText baseline: plain average of cell embeddings, no metadata,
  * no fine-tuning, order-insensitive.
  */
final class FastTextEmbedder extends ColumnEmbedder {
  override val name = "fastText"
  override val dim = 300
  private val emb = new HashEmbedder(dim, 0xfa57L, useCharNgrams = true)

  override def embed(col: LakeColumn): Array[Float] = {
    val v = new Array[Float](dim)
    var n = 0
    col.cells.foreach { cell =>
      val cv = new Array[Float](dim)
      val toks = Tokenizer.tokenize(cell)
      var m = 0
      toks.foreach { t => emb.embedTokenInto(t, cv); m += 1 }
      if (m == 0) { emb.embedTokenInto(cell, cv); m = 1 }
      VecOps.normalizeInPlace(cv)
      VecOps.axpy(1.0f, cv, v)
      n += 1
    }
    if (n > 0) VecOps.scale(v, 1.0f / n)
    VecOps.normalizeInPlace(v)
    v
  }
}
