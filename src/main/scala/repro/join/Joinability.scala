package repro.join

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.embed.VecOps
import repro.lake.LakeColumn

/** Joinability (Definitions 2.1 and 2.3) and exact top-k discovery.
  *
  * The equi path is a Spark DataFrame job — cells are exploded into an
  * inverted list, joined with the query cells, and overlap counts are
  * normalized by |Q| — the same computation JOSIE performs, without its
  * pruning, and therefore the exact ground truth for Table 3's precision.
  * The semantic path counts vector matches under threshold τ (Def 2.2/2.3).
  */
object Joinability {

  /** Equi-joinability jn(Q,X) = |Q ∩ X| / |Q| for two small columns, both
    * taken as sets of cells (as JOSIE and LSH Ensemble take them).
    */
  def equiJn(q: Seq[String], x: Seq[String]): Double = {
    val qs = q.distinct
    if (qs.isEmpty) return 0.0
    val xs = x.toSet
    qs.count(xs.contains).toDouble / qs.size
  }

  /** Semantic-joinability: fraction of q's vectors with a match in x. */
  def semanticJn(q: Array[Array[Float]], x: Array[Array[Float]], tau: Double): Double = {
    if (q.isEmpty) return 0.0
    var matched = 0
    var i = 0
    while (i < q.length) {
      var found = false
      var j = 0
      while (!found && j < x.length) {
        if (VecOps.l2(q(i), x(j)) <= tau) found = true
        j += 1
      }
      if (found) matched += 1
      i += 1
    }
    matched.toDouble / q.length
  }

  /** Exact equi top-k for every query, as a DataFrame job.
    *
    * Columns are sets of cells: a repeated cell counts once on either side,
    * so jn never exceeds 1 (matching [[equiJn]] and JOSIE).
    *
    * Returns (queryId, columnId, jn, rank) with rank 1..k per query, ordered
    * by jn desc then columnId asc (the deterministic tie-break every method
    * in this repo uses).
    */
  def equiTopK(spark: SparkSession, queries: Dataset[LakeColumn],
               repo: Dataset[LakeColumn], k: Int): DataFrame = {
    import spark.implicits._
    val qCells = queries
      .select($"id".as("qid"), array_distinct($"cells").as("cells"))
      .select($"qid", size($"cells").as("qsize"), explode($"cells").as("cell"))
    val xCells = repo
      .select($"id".as("xid"), explode(array_distinct($"cells")).as("cell"))
    val overlap = qCells.join(xCells, "cell")
      .groupBy($"qid", $"qsize", $"xid")
      .agg(count(lit(1)).as("ov"))
      .select($"qid", $"xid", ($"ov" / $"qsize").as("jn"))
    val w = Window.partitionBy($"qid").orderBy($"jn".desc, $"xid".asc)
    overlap
      .withColumn("rank", row_number().over(w))
      .filter($"rank" <= k)
      .select($"qid", $"xid", $"jn", $"rank")
  }

  /** Collected form of [[equiTopK]]: query id -> ranked (colId, jn). */
  def equiTopKMap(spark: SparkSession, queries: Dataset[LakeColumn],
                  repo: Dataset[LakeColumn], k: Int): Map[Long, Seq[(Long, Double)]] = {
    import spark.implicits._
    equiTopK(spark, queries, repo, k)
      .as[(Long, Long, Double, Int)]
      .collect()
      .groupBy(_._1)
      .map { case (qid, rows) =>
        qid -> rows.sortBy(_._4).map(r => (r._2, r._3)).toSeq
      }
  }

  /** Equi self-join: all ordered pairs with jn(X, Y) >= t, X != Y.
    * This is the paper's training-positive producer (Section 4.1).
    */
  def equiSelfJoin(spark: SparkSession, cols: Dataset[LakeColumn],
                   t: Double): DataFrame = {
    import spark.implicits._
    val a = cols.select($"id".as("xid"), array_distinct($"cells").as("cells"))
      .select($"xid", size($"cells").as("xsize"), explode($"cells").as("cell"))
    val b = cols.select($"id".as("yid"), explode(array_distinct($"cells")).as("cell"))
    a.join(b, "cell")
      .filter($"xid" =!= $"yid")
      .groupBy($"xid", $"xsize", $"yid")
      .agg(count(lit(1)).as("ov"))
      .select($"xid", $"yid", ($"ov" / $"xsize").as("jn"))
      .filter($"jn" >= t)
  }
}
