package repro.join

import org.apache.spark.sql.SparkSession
import repro.embed.{CellEmbedder, VecOps}
import repro.lake.LakeColumn
import scala.collection.mutable

/** PEXESO (Dong et al., ICDE 2021): exact semantic-joinable table discovery
  * with pivot-based filtering — the paper's exact semantic baseline and the
  * producer of its semantic training labels.
  *
  * Every cell is embedded into the metric space V ([[CellEmbedder]]); a cell
  * pair matches iff their Euclidean distance is ≤ τ (Definition 2.2). A set
  * of mutually far pivots is selected and distances from every repository
  * cell vector to every pivot are precomputed; by the triangle inequality a
  * pair whose pivot distances differ by more than τ on any pivot cannot
  * match, which skips the full d-dimensional distance for the vast majority
  * of cross-domain pairs. As the paper notes (Section 2.2), for top-k
  * queries the grid's count-threshold pruning has no power at the start of a
  * scan, so the search degrades to a (pivot-accelerated) linear scan — which
  * is exactly what the efficiency tables measure.
  */
final class Pexeso private (
    val colIds: Array[Long],
    cellVecs: Array[Array[Array[Float]]],
    pivotDists: Array[Array[Array[Float]]], // [col][cell][pivot]
    pivots: Array[Array[Float]]) extends Serializable {

  def numColumns: Int = colIds.length
  private def nPivots: Int = pivots.length

  /** Pivot distances for a query column's cell vectors. */
  private def queryPivotDists(q: Array[Array[Float]]): Array[Array[Float]] =
    q.map(v => pivots.map(p => VecOps.l2(v, p)))

  /** Exact count of query cells with ≥1 match in column `c` under τ,
    * stopping early once the count can no longer reach `needed`.
    */
  private def matchCount(q: Array[Array[Float]], qPiv: Array[Array[Float]],
                         c: Int, tau: Float, needed: Int): Int = {
    val xs = cellVecs(c)
    val xPiv = pivotDists(c)
    var matched = 0
    var i = 0
    while (i < q.length) {
      // Even if every remaining query cell matched, can we still reach `needed`?
      if (matched + (q.length - i) < needed) return matched
      val qp = qPiv(i)
      var found = false
      var j = 0
      while (!found && j < xs.length) {
        // Pivot filter: |d(q,p) - d(x,p)| > τ for any pivot ⇒ no match.
        var pruned = false
        var p = 0
        while (!pruned && p < nPivots) {
          val diff = qp(p) - xPiv(j)(p)
          if (diff > tau || diff < -tau) pruned = true
          p += 1
        }
        if (!pruned && VecOps.l2(q(i), xs(j)) <= tau) found = true
        j += 1
      }
      if (found) matched += 1
      i += 1
    }
    matched
  }

  /** Exact top-k columns by semantic joinability (Definition 2.3). */
  def topK(queryCells: Seq[String], tau: Double, k: Int): Seq[(Long, Double)] = {
    val q = CellEmbedder.default.embedColumn(queryCells)
    if (k <= 0 || q.isEmpty || numColumns == 0) return Seq.empty
    val qPiv = queryPivotDists(q)
    val tF = tau.toFloat
    // Max-heap on (-count, id) so the worst kept result is on top.
    val worstFirst: Ordering[(Int, Long)] =
      Ordering.by((e: (Int, Long)) => (-e._1, e._2))
    val heap = mutable.PriorityQueue.empty[(Int, Long)](worstFirst)
    var kthCount = 0
    var c = 0
    while (c < numColumns) {
      val needed = if (heap.size < k) 1 else kthCount // count needed to matter
      val cnt = matchCount(q, qPiv, c, tF, math.max(1, needed))
      if (cnt > 0) {
        if (heap.size < k) heap.enqueue((cnt, colIds(c)))
        else {
          val (wCnt, wId) = heap.head
          if (cnt > wCnt || (cnt == wCnt && colIds(c) < wId)) {
            heap.dequeue(); heap.enqueue((cnt, colIds(c)))
          }
        }
        if (heap.size == k) kthCount = heap.head._1
      }
      c += 1
    }
    heap.toSeq
      .map { case (cnt, id) => (id, cnt.toDouble / q.length) }
      .sortBy { case (id, jn) => (-jn, id) }
  }

  /** Exact semantic jn(Q, X) for one repository column id. */
  def jnOf(queryCells: Seq[String], tau: Double, colId: Long): Double =
    jnMap(queryCells, tau, Seq(colId)).getOrElse(colId, 0.0)

  @transient private lazy val indexOfId: Map[Long, Int] =
    colIds.zipWithIndex.map { case (id, i) => id -> i }.toMap

  /** Exact semantic jn(Q, ·) for a set of column ids (query embedded once). */
  def jnMap(queryCells: Seq[String], tau: Double,
            ids: Seq[Long]): Map[Long, Double] = {
    val q = CellEmbedder.default.embedColumn(queryCells)
    if (q.isEmpty) return ids.map(_ -> 0.0).toMap
    val qPiv = queryPivotDists(q)
    ids.map { id =>
      indexOfId.get(id) match {
        case Some(c) => id -> matchCount(q, qPiv, c, tau.toFloat, 1).toDouble / q.length
        case None => id -> 0.0
      }
    }.toMap
  }
}

object Pexeso {

  /** Number of pivots, and the seed of the pivot sample. */
  private val nPivots = 5
  private val seed = 0x9eL

  /** Greedy max-min pivot selection over a sample of cell vectors. */
  private def selectPivots(sample: IndexedSeq[Array[Float]]): Array[Array[Float]] = {
    if (sample.isEmpty) return Array(Array.fill(CellEmbedder.default.dim)(0.0f))
    val r = new java.util.Random(seed)
    val pivots = mutable.ArrayBuffer(sample(r.nextInt(sample.length)))
    while (pivots.length < nPivots) {
      var best: Array[Float] = null
      var bestD = -1.0f
      sample.foreach { v =>
        val d = pivots.iterator.map(p => VecOps.l2(v, p)).min
        if (d > bestD) { bestD = d; best = v }
      }
      pivots += best
    }
    pivots.toArray
  }

  /** Build from a collected repository; embeds every cell into V. */
  def build(cols: Seq[(Long, Seq[String])]): Pexeso = {
    val colIds = cols.map(_._1).toArray
    val cellVecs = cols.map { case (_, cells) => CellEmbedder.default.embedColumn(cells) }.toArray
    val sample = {
      val all = mutable.ArrayBuffer.empty[Array[Float]]
      val r = new java.util.Random(seed)
      cellVecs.foreach { vs => if (vs.nonEmpty) all += vs(r.nextInt(vs.length)) }
      all.take(2000).toIndexedSeq
    }
    val pivots = selectPivots(sample)
    val pivotDists = cellVecs.map(_.map(v => pivots.map(p => VecOps.l2(v, p))))
    new Pexeso(colIds, cellVecs, pivotDists, pivots)
  }

  /** Semantic self-join (training positives, Section 4.1): ordered pairs
    * (x, y), x ≠ y, with semantic jn(x, y) ≥ t. Runs data-parallel on
    * Spark: each x-column scans a broadcast of all columns' cell vectors.
    */
  def semanticSelfJoin(spark: SparkSession, cols: Seq[LakeColumn], tau: Double,
                       t: Double): Seq[(Long, Long, Double)] = {
    import spark.implicits._
    val vecs = cols.map(c => (c.id, CellEmbedder.default.embedColumn(c.cells)))
    val bc = spark.sparkContext.broadcast(vecs)
    val tauD = tau
    val tD = t
    val out = spark.createDataset(vecs.map(_._1))
      .repartition(spark.sparkContext.defaultParallelism * 2)
      .mapPartitions { it =>
        val all = bc.value
        val byId = all.toMap
        it.flatMap { xid =>
          val x = byId(xid)
          if (x.isEmpty) Iterator.empty
          else all.iterator
            .filter(_._1 != xid)
            .map { case (yid, y) =>
              (xid, yid, Joinability.semanticJn(x, y, tauD))
            }
            .filter(_._3 >= tD)
        }
      }
      .collect()
    bc.destroy()
    out.toSeq
  }
}
