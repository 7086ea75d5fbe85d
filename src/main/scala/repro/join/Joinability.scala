package repro.join

import org.apache.spark.sql.{DataFrame, Dataset, SparkSession}
import org.apache.spark.sql.functions._
import repro.embed.VecOps
import repro.lake.LakeColumn

/** Joinability (Definitions 2.1 and 2.3) of column pairs, and the equi
  * self-join that produces training positives (Section 4.1).
  *
  * `equiJn` and `semanticJn` are the brute-force definitions that JOSIE and
  * PEXESO, the exact top-k searches, are tested against. The self-join is a
  * Spark DataFrame job: cells are exploded into an inverted list, joined
  * with itself, and overlap counts are normalized by |X|.
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
