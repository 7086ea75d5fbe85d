package repro.embed

/** The metric space V of Definition 2.2: one unit vector per cell value.
  *
  * Stands in for fastText word embeddings: character-n-gram hashing makes
  * light surface variants (typos, casing) land within a small Euclidean
  * distance of the canonical form, while heavy variants (abbreviations) and
  * distinct entities land far away. The paper's vector-matching thresholds
  * τ ∈ {0.9, 0.8, 0.7} then carve out progressively stricter match sets.
  */
final class CellEmbedder private () extends Serializable {

  val dim: Int = 32
  private val emb = new HashEmbedder(dim, 0x5eedceL, useCharNgrams = true, minN = 2, maxN = 4)

  /** Unit vector for one cell value. */
  def embed(cell: String): Array[Float] = {
    val toks = repro.text.Tokenizer.tokenize(cell)
    if (toks.isEmpty) emb.embedText(Seq(cell)) else emb.embedText(toks)
  }

  /** Embed every cell of a column (multiset of vectors, Def 2.3). */
  def embedColumn(cells: Seq[String]): Array[Array[Float]] =
    cells.iterator.map(embed).toArray
}

object CellEmbedder {
  /** The single space V shared by PEXESO, labels and the fastText baseline. */
  val default: CellEmbedder = new CellEmbedder()
}
