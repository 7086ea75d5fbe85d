package repro.core

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.ann.Hnsw
import repro.embed.ColumnEmbedder
import repro.lake.LakeColumn
import scala.collection.immutable.ArraySeq

/** Per-query timing breakdown (the paper reports query encoding separately
  * from end-to-end time in Tables 13–15).
  */
final case class SearchTiming(encodeMs: Double, annMs: Double) {
  def totalMs: Double = encodeMs + annMs
}

/** A built DeepJoin index: embeddings of the repository columns in an HNSW
  * graph, plus the id mapping back to column ids.
  */
final class DeepJoinIndex(
    val hnsw: Hnsw,
    val ids: Array[Long],
    val embedder: ColumnEmbedder) {

  def size: Int = ids.length
}

/** DeepJoin (Section 3): embedding-based joinable table discovery.
  *
  * Offline, every repository column is contextualized and encoded to a unit
  * vector (data-parallel over Spark) and inserted into an HNSW graph.
  * Online, the query column is encoded and its k nearest neighbors under
  * Euclidean distance are returned — the ANN results *are* the discovery
  * results (no re-ranking stage, matching the paper).
  */
object DeepJoin {

  /** Encode all columns with the given embedder, data-parallel on Spark.
    * Returns (column id, embedding), sorted by id for determinism.
    *
    * Each partition of `cols` is encoded where it is, with no shuffle, so
    * the caller's partitioning is the parallelism: pass at least
    * `defaultParallelism` partitions. The embedder is broadcast, so each
    * executor deserializes it once and its tasks share that one instance.
    */
  def encodeAll(spark: SparkSession, cols: Dataset[LakeColumn],
                embedder: ColumnEmbedder): Array[(Long, Array[Float])] = {
    val emb = spark.sparkContext.broadcast(embedder)
    try cols.rdd.mapPartitions { it => val e = emb.value; it.map(c => (c.id, e.embed(c))) }
      .collect().sortBy(_._1)
    finally emb.destroy()
  }

  /** Driver-side encoding for small column sets (e.g. query workloads). */
  def encodeAllLocal(cols: Seq[LakeColumn],
                     embedder: ColumnEmbedder): Array[(Long, Array[Float])] =
    cols.map(c => (c.id, embedder.embed(c))).sortBy(_._1).toArray

  /** Build the HNSW index over pre-computed embeddings, with
    * [[Hnsw.addAll]]'s batch-parallel insertion.
    */
  def buildIndex(embeddings: Array[(Long, Array[Float])],
                 embedder: ColumnEmbedder,
                 m: Int = 16, efConstruction: Int = 200): DeepJoinIndex = {
    require(embeddings.nonEmpty, "empty repository")
    val hnsw = new Hnsw(embeddings.head._2.length, m, efConstruction)
    hnsw.addAll(ArraySeq.unsafeWrapArray(embeddings.map(_._2)))
    new DeepJoinIndex(hnsw, embeddings.map(_._1), embedder)
  }

  /** Build from a Dataset: encode on Spark, then index on the driver. */
  def buildIndex(spark: SparkSession, repo: Dataset[LakeColumn],
                 embedder: ColumnEmbedder): DeepJoinIndex =
    buildIndex(encodeAll(spark, repo, embedder), embedder)

  /** Top-k search with a timing breakdown. Results are (column id, L2 dist)
    * by ascending distance — the joinability ranking of Problem 1.
    */
  def search(index: DeepJoinIndex, query: LakeColumn, k: Int,
             ef: Int = 96): (Seq[(Long, Float)], SearchTiming) = {
    val t0 = System.nanoTime()
    val qv = index.embedder.embed(query)
    val t1 = System.nanoTime()
    val nn = index.hnsw.search(qv, k, math.max(ef, k + 16))
    val t2 = System.nanoTime()
    val res = nn.map { case (i, d) => (index.ids(i), d) }.toSeq
    (res, SearchTiming((t1 - t0) / 1e6, (t2 - t1) / 1e6))
  }
}
