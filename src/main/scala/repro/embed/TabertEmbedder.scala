package repro.embed

import repro.lake.LakeColumn
import repro.text.Tokenizer

/** TaBERT-style baseline: a column embedding pre-trained for question
  * answering, not for joinability.
  *
  * A QA model's column representation leans on headers/captions and a small
  * sample of cell evidence rather than the full value distribution; we model
  * that by weighting metadata tokens heavily and truncating cell content to
  * the first 8 cells. As in the paper, this mismatch makes TaBERT
  * underperform plain fastText averaging on joinable-table discovery.
  */
final class TabertEmbedder extends ColumnEmbedder {

  override val name = "TaBERT"
  override val dim = 256
  private val cellSample = 8
  private val emb = new HashEmbedder(dim, 0x7ab3L, useCharNgrams = true)

  override def embed(col: LakeColumn): Array[Float] = {
    val v = new Array[Float](dim)
    var w = 0.0f
    def add(text: String, weight: Float): Unit =
      Tokenizer.tokenize(text).foreach { t =>
        val tv = emb.embedToken(t)
        VecOps.normalizeInPlace(tv)
        VecOps.axpy(weight, tv, v)
        w += weight
      }
    add(col.tableTitle, 3.0f)
    add(col.colName, 3.0f)
    col.cells.take(cellSample).foreach(add(_, 1.0f))
    if (w > 0) VecOps.scale(v, 1.0f / w)
    VecOps.normalizeInPlace(v)
    v
  }
}
