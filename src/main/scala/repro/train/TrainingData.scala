package repro.train

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.join.{Joinability, Pexeso}
import repro.lake.LakeColumn
import scala.util.Random

/** Training-data preparation (Section 4.1).
  *
  * Positives are column pairs from a self-join on the training repository
  * with jn ≥ t (equi via a Spark inverted-list self-join, semantic via
  * PEXESO). Data augmentation inserts (shuffle(X), Y) for a `shuffleRate`
  * fraction of the positives, so that out of all positives r/(1+r) are
  * shuffled — teaching the order-sensitive PLM that joinability is
  * order-insensitive. Negatives are in-batch (handled by the loss).
  */
object TrainingData {

  /** A positive training pair (the x side may be a shuffled copy). */
  final case class Pair(x: LakeColumn, y: LakeColumn, jn: Double)

  /** Equi positives: ordered pairs with jn(X,Y) ≥ t, via Spark self-join. */
  def equiPositives(spark: SparkSession, train: Dataset[LakeColumn],
                    t: Double): Seq[Pair] = {
    import spark.implicits._
    val byId = train.collect().map(c => c.id -> c).toMap
    Joinability.equiSelfJoin(spark, train, t)
      .as[(Long, Long, Double)]
      .collect()
      .toSeq
      .sortBy(p => (p._1, p._2))
      .map { case (x, y, jn) => Pair(byId(x), byId(y), jn) }
  }

  /** Semantic positives: ordered pairs with semantic jn ≥ t under τ. */
  def semanticPositives(train: Seq[LakeColumn], tau: Double, t: Double): Seq[Pair] = {
    val byId = train.map(c => c.id -> c).toMap
    Pexeso.semanticSelfJoin(train, tau, t)
      .sortBy(p => (p._1, p._2))
      .map { case (x, y, jn) => Pair(byId(x), byId(y), jn) }
  }

  /** Cell-shuffle augmentation: for ceil(r·|P|) sampled pairs, insert
    * (shuffle(X), Y). With rate r, shuffled pairs are r/(1+r) of the output.
    */
  def augment(positives: Seq[Pair], shuffleRate: Double, seed: Long = 0x5fffL): Seq[Pair] = {
    require(shuffleRate >= 0.0, "negative shuffle rate")
    if (shuffleRate == 0.0 || positives.isEmpty) return positives
    val rnd = new Random(seed)
    val nShuffle = math.min(positives.size, math.ceil(shuffleRate * positives.size).toInt)
    val picked = rnd.shuffle(positives.indices.toVector).take(nShuffle)
    val extra = picked.map { i =>
      val p = positives(i)
      p.copy(x = shuffleCells(p.x, rnd.nextLong()))
    }
    positives ++ extra
  }

  /** Random permutation of a column's cells (entities stay parallel). */
  def shuffleCells(c: LakeColumn, seed: Long): LakeColumn = {
    val rnd = new Random(seed)
    val perm = rnd.shuffle(c.cells.indices.toVector)
    c.copy(cells = perm.map(c.cells), entities = perm.map(c.entities))
  }
}
