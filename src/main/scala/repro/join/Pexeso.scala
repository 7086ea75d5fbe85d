package repro.join

import repro.embed.{CellEmbedder, VecOps}
import repro.lake.LakeColumn
import scala.collection.mutable
import scala.collection.parallel.CollectionConverters._

/** PEXESO (Dong et al., ICDE 2021): exact semantic-joinable table discovery
  * — the paper's exact semantic baseline and the producer of its semantic
  * training labels.
  *
  * Every cell is embedded into the metric space V ([[CellEmbedder]]); a cell
  * pair matches iff their Euclidean distance is ≤ τ (Definition 2.2). The
  * index stores each distinct cell value once (row-major, plus a dim-major
  * copy `vt(c)(v)`), a value → column posting list and each column's value
  * ids. A query cell is compared against every value at once with a
  * lane-wise float sum of squared differences, which C2 vectorizes; a value
  * whose sum exceeds [[Pexeso.filterBound]] cannot match, and the few that
  * survive take the exact `VecOps.l2` test, so every match decision is that
  * test's (DESIGN.md §7). Pivot filtering, as in the PEXESO paper, prunes
  * almost nothing in this 32-dimensional space, where distances concentrate.
  * As the paper notes (Section 2.2), a top-k query has no count threshold to
  * prune with at the start of a scan, so the search is a linear scan — which
  * is exactly what the efficiency tables measure.
  */
final class Pexeso private (
    val colIds: Array[Long],
    vals: Array[Array[Float]],   // distinct cell values' vectors
    vt: Array[Array[Float]],     // dim-major copy: vt(c)(v) = vals(v)(c)
    postStart: Array[Int],       // columns of value v: postCols(postStart(v) until postStart(v + 1))
    postCols: Array[Int],
    colVals: Array[Array[Int]])  // distinct value ids of each column
  extends Serializable {

  def numColumns: Int = colIds.length

  /** Per column, the number of query cells with ≥1 match under `tf`
    * (a match is `VecOps.l2(q, x) <= tf`). Scratch is per call, so calls
    * may run concurrently.
    */
  private def counts(q: Array[Array[Float]], tf: Float): Array[Int] = {
    val n = vals.length
    val bound = Pexeso.filterBound(tf)
    val s = new Array[Float](n)
    val matched = Array.fill(q.length)(new mutable.ArrayBuilder.ofInt)
    // Tiles over values: one tile of `vt` serves every query cell.
    var b0 = 0
    while (b0 < n) {
      val b1 = math.min(n, b0 + Pexeso.Tile)
      var i = 0
      while (i < q.length) {
        val qv = q(i)
        java.util.Arrays.fill(s, b0, b1, 0.0f)
        var c = 0
        while (c < qv.length) {
          val qc = qv(c)
          val row = vt(c)
          var v = b0
          while (v < b1) { val d = qc - row(v); s(v) += d * d; v += 1 }
          c += 1
        }
        var v = b0
        while (v < b1) {
          if (s(v) <= bound && VecOps.l2(qv, vals(v)) <= tf) matched(i) += v
          v += 1
        }
        i += 1
      }
      b0 = b1
    }
    val cnt = new Array[Int](numColumns)
    val lastCell = Array.fill(numColumns)(-1) // query cell that last counted the column
    var i = 0
    while (i < q.length) {
      val vs = matched(i).result()
      var j = 0
      while (j < vs.length) {
        var p = postStart(vs(j))
        while (p < postStart(vs(j) + 1)) {
          val col = postCols(p)
          if (lastCell(col) != i) { lastCell(col) = i; cnt(col) += 1 }
          p += 1
        }
        j += 1
      }
      i += 1
    }
    cnt
  }

  /** Exact top-k columns by semantic joinability (Definition 2.3), ranked
    * by jn desc, then id asc.
    */
  def topK(queryCells: Seq[String], tau: Double, k: Int): Seq[(Long, Double)] = {
    val q = CellEmbedder.default.embedColumn(queryCells)
    if (k <= 0 || q.isEmpty || numColumns == 0) return Seq.empty
    val cnt = counts(q, Pexeso.floatAtMost(tau))
    (0 until numColumns).filter(cnt(_) > 0)
      .sortBy(c => (-cnt(c), colIds(c)))
      .take(k)
      .map(c => (colIds(c), cnt(c).toDouble / q.length))
  }

  /** Exact semantic jn(Q, X) for one repository column id. */
  def jnOf(queryCells: Seq[String], tau: Double, colId: Long): Double =
    jnMap(queryCells, tau, Seq(colId)).getOrElse(colId, 0.0)

  @transient private lazy val indexOfId: Map[Long, Int] =
    colIds.zipWithIndex.map { case (id, i) => id -> i }.toMap

  /** Exact semantic jn(Q, ·) for a set of column ids (query embedded once;
    * only the asked columns' values are tested).
    */
  def jnMap(queryCells: Seq[String], tau: Double,
            ids: Seq[Long]): Map[Long, Double] = {
    val q = CellEmbedder.default.embedColumn(queryCells)
    val tf = Pexeso.floatAtMost(tau)
    ids.map { id =>
      val jn = indexOfId.get(id) match {
        case Some(c) if q.nonEmpty =>
          val xs = colVals(c)
          q.count(qv => xs.exists(v => VecOps.l2(qv, vals(v)) <= tf)).toDouble / q.length
        case _ => 0.0
      }
      id -> jn
    }.toMap
  }
}

object Pexeso {

  /** Values per tile of the filter: 32 dims × 1024 values × 4 B = 128 KiB. */
  private val Tile = 1024

  /** Smallest float ≥ nextUp(tf)² · (1 + 1e-4). A pair with
    * `VecOps.l2(q, x) <= tf` has √S < nextUp(tf), where S is l2's double sum
    * of the float squares; the same squares summed in float differ from S
    * by at most (d − 1)·2⁻²⁴ relative (31·2⁻²⁴ ≈ 2e-6 for d = 32), far
    * inside the 1e-4 margin, so no matching pair has a float sum above this
    * bound.
    */
  private def filterBound(tf: Float): Float = {
    val up = Math.nextUp(tf).toDouble
    val b = up * up * (1 + 1e-4)
    val f = b.toFloat
    if (f < b) Math.nextUp(f) else f
  }

  /** Largest float ≤ τ: `l2 <= floatAtMost(τ)` decides exactly as the
    * float-to-double comparison `l2 <= τ` of [[Joinability.semanticJn]].
    * Every entry point converts τ with it (`tau.toFloat` rounds 0.8 up).
    */
  private def floatAtMost(tau: Double): Float = {
    val f = tau.toFloat
    if (f > tau) Math.nextDown(f) else f
  }

  /** Build from a collected repository; embeds each distinct cell once. */
  def build(cols: Seq[(Long, Seq[String])]): Pexeso = {
    val colIds = cols.map(_._1).toArray
    val idOf = mutable.HashMap.empty[String, Int]
    val cells = mutable.ArrayBuffer.empty[String]
    val colVals = cols.map { case (_, cs) =>
      cs.iterator.map(cell => idOf.getOrElseUpdate(cell, { cells += cell; cells.length - 1 }))
        .toArray.distinct
    }.toArray
    val vals = cells.map(CellEmbedder.default.embed).toArray
    val vt = Array.tabulate(CellEmbedder.default.dim)(c => vals.map(_(c)))
    val postStart = new Array[Int](vals.length + 1)
    colVals.foreach(_.foreach(v => postStart(v + 1) += 1))
    for (v <- 0 until vals.length) postStart(v + 1) += postStart(v)
    val fill = postStart.clone()
    val postCols = new Array[Int](postStart(vals.length))
    colVals.indices.foreach { col =>
      colVals(col).foreach { v => postCols(fill(v)) = col; fill(v) += 1 }
    }
    new Pexeso(colIds, vals, vt, postStart, postCols, colVals)
  }

  /** Semantic self-join (training positives, Section 4.1): ordered pairs
    * (x, y), x ≠ y, with semantic jn(x, y) ≥ t, each jn decided exactly as
    * [[Joinability.semanticJn]] decides it. One index over `cols` answers
    * every x, data-parallel over x.
    */
  def semanticSelfJoin(cols: Seq[LakeColumn], tau: Double,
                       t: Double): Seq[(Long, Long, Double)] = {
    val px = build(cols.map(c => (c.id, c.cells)))
    val tf = floatAtMost(tau)
    cols.par.flatMap { x =>
      val q = CellEmbedder.default.embedColumn(x.cells)
      if (q.isEmpty) Nil
      else {
        val cnt = px.counts(q, tf)
        px.colIds.indices.iterator
          .filter(c => px.colIds(c) != x.id)
          .map(c => (x.id, px.colIds(c), cnt(c).toDouble / q.length))
          .filter(_._3 >= t)
          .toSeq
      }
    }.seq
  }
}
