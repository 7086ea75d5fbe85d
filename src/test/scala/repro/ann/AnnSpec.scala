package repro.ann

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

object AnnFixtures {
  /** Clustered gaussian vectors: `n` points around `nClusters` centers. */
  def clustered(n: Int, dim: Int, nClusters: Int, seed: Long): IndexedSeq[Array[Float]] = {
    val r = new Random(seed)
    val centers = IndexedSeq.fill(nClusters)(Array.fill(dim)(r.nextGaussian().toFloat))
    IndexedSeq.tabulate(n) { i =>
      val c = centers(i % nClusters)
      val v = Array.tabulate(dim)(j => c(j) + 0.15f * r.nextGaussian().toFloat)
      v
    }
  }

  def recallAtK(approx: Array[(Int, Float)], exact: Array[(Int, Float)]): Double = {
    val e = exact.map(_._1).toSet
    if (e.isEmpty) 1.0 else approx.count(p => e.contains(p._1)).toDouble / e.size
  }
}

class BruteForceSpec extends AnyFunSuite {
  private val data = AnnFixtures.clustered(200, 8, 5, seed = 1L)

  test("returns k results sorted by distance") {
    val q = data(13)
    val res = BruteForce.search(data, q, 10)
    assert(res.length == 10)
    assert(res.map(_._2).toSeq == res.map(_._2).sorted.toSeq)
  }
  test("top-1 of a query that is in the index is itself") {
    val res = BruteForce.search(data, data(42), 1)
    assert(res.head._1 == 42 && res.head._2 == 0f)
  }
  test("k larger than n returns n results") {
    assert(BruteForce.search(data.take(5), data(0), 10).length == 5)
  }
  test("empty index returns nothing") {
    assert(BruteForce.search(IndexedSeq.empty, data(0), 3).isEmpty)
  }
  test("ties break by index ascending") {
    val dup = IndexedSeq(Array(1f, 0f), Array(1f, 0f), Array(0f, 1f))
    val res = BruteForce.search(dup, Array(1f, 0f), 2)
    assert(res.map(_._1).toSeq == Seq(0, 1))
  }
}

class HnswSpec extends AnyFunSuite {
  private val dim = 16
  private val data = AnnFixtures.clustered(1500, dim, 12, seed = 7L)

  private def build(): Hnsw = {
    val h = new Hnsw(dim, m = 12, efConstruction = 100, seed = 5L)
    data.foreach(h.add)
    h
  }

  test("size reflects insertions") {
    assert(build().size == data.size)
  }
  test("search on an empty index returns nothing") {
    assert(new Hnsw(4).search(Array(0f, 0f, 0f, 0f), 5).isEmpty)
  }
  test("single-element index returns that element") {
    val h = new Hnsw(2)
    h.add(Array(1f, 2f))
    val res = h.search(Array(1f, 2f), 3)
    assert(res.toSeq.map(_._1) == Seq(0))
  }
  test("results are sorted by distance ascending") {
    val h = build()
    val res = h.search(data(3), 20, ef = 64)
    assert(res.map(_._2).toSeq == res.map(_._2).sorted.toSeq)
  }
  test("self-query returns itself first") {
    val h = build()
    (0 until 20).foreach { i =>
      val res = h.search(data(i * 70), 1, ef = 64)
      assert(res.head._2 <= 1e-6f, s"query $i: got ${res.head}")
    }
  }
  test("recall@10 vs brute force exceeds 0.9") {
    val h = build()
    val r = new Random(11)
    val recalls = (0 until 30).map { _ =>
      val q = Array.fill(dim)(r.nextGaussian().toFloat)
      AnnFixtures.recallAtK(h.search(q, 10, ef = 96), BruteForce.search(data, q, 10))
    }
    val mean = recalls.sum / recalls.size
    assert(mean > 0.9, s"mean recall $mean")
  }
  test("higher ef gives at least comparable recall") {
    val h = build()
    val r = new Random(13)
    val qs = IndexedSeq.fill(20)(Array.fill(dim)(r.nextGaussian().toFloat))
    def rec(ef: Int) = qs.map { q =>
      AnnFixtures.recallAtK(h.search(q, 10, ef), BruteForce.search(data, q, 10))
    }.sum / qs.size
    assert(rec(128) >= rec(16) - 0.05)
  }
  test("vector() returns the inserted vector") {
    val h = build()
    assert(h.vector(5).toSeq == data(5).toSeq)
  }
  test("dimension mismatch is rejected") {
    val h = new Hnsw(4)
    assertThrows[IllegalArgumentException](h.add(Array(1f, 2f)))
  }
  test("construction is deterministic in the seed") {
    val h1 = new Hnsw(dim, seed = 3L); data.take(300).foreach(h1.add)
    val h2 = new Hnsw(dim, seed = 3L); data.take(300).foreach(h2.add)
    val q = data(50)
    assert(h1.search(q, 5, 64).toSeq == h2.search(q, 5, 64).toSeq)
  }
  test("k greater than size returns all points") {
    val h = new Hnsw(dim)
    data.take(7).foreach(h.add)
    assert(h.search(data(0), 20, 64).length == 7)
  }
}
