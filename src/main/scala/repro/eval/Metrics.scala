package repro.eval

/** Accuracy metrics of Section 5.1.
  *
  * Precision@k is the overlap between the model's top-k and the exact top-k.
  * NDCG@k is DCG_model / DCG_exact with gain = true joinability of the item
  * at each rank. The pooled precision/recall/F1 follows the retrieved-pool
  * protocol the paper uses for the expert-labeled evaluation (Table 7).
  */
object Metrics {

  /** |model top-k ∩ exact top-k| / k (denominator capped by pool size). */
  def precisionAtK(model: Seq[Long], exact: Seq[Long], k: Int): Double = {
    val denom = math.min(k, math.max(1, exact.size))
    val e = exact.take(k).toSet
    model.take(k).count(e.contains).toDouble / denom
  }

  /** DCG with gains in rank order: Σ gain_i / log2(i + 1), i from 1. */
  def dcg(gains: Seq[Double]): Double =
    gains.zipWithIndex.map { case (g, i) => g / (math.log(i + 2) / math.log(2)) }.sum

  /** NDCG@k = DCG over the model ranking / DCG over the exact ranking,
    * where `jnOf` supplies the true joinability of any retrieved column.
    */
  def ndcgAtK(model: Seq[Long], exact: Seq[Long], k: Int,
              jnOf: Long => Double): Double = {
    val denom = dcg(exact.take(k).map(jnOf))
    if (denom <= 0.0) return if (model.isEmpty) 1.0 else 0.0
    dcg(model.take(k).map(jnOf)) / denom
  }

  /** Mean over queries. */
  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size

  /** Pooled precision/recall/F1 (Table 7 protocol), micro-averaged across
    * queries: the relevant pool of a query is the set of truly joinable
    * columns among the union of all methods' results, and tp / retrieved /
    * relevant are summed over all queries (more stable than averaging tiny
    * per-query ratios, and the behaviour of the paper's single aggregate
    * numbers).
    *
    * @param perQuery   per query: the method's retrieved column ids and the
    *                   union of ids retrieved by all compared methods
    * @param isJoinable ground-truth judgement (query index, column id)
    */
  def pooledPrfMicro(perQuery: Seq[(Seq[Long], Set[Long])],
                     isJoinable: (Int, Long) => Boolean): (Double, Double, Double) = {
    var tp = 0; var ret = 0; var rel = 0
    perQuery.zipWithIndex.foreach { case ((retrieved, pool), qi) =>
      tp += retrieved.count(isJoinable(qi, _))
      ret += retrieved.size
      rel += pool.count(isJoinable(qi, _))
    }
    val p = if (ret == 0) 0.0 else tp.toDouble / ret
    val r = if (rel == 0) 0.0 else tp.toDouble / rel
    val f1 = if (p + r == 0) 0.0 else 2 * p * r / (p + r)
    (p, r, f1)
  }
}
