package repro.ann

import java.util.concurrent.{Callable, ForkJoinPool}
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

import repro.embed.VecOps

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

  /** `addAll` of the fixture inside a pool of `threads` workers. */
  private def buildAll(threads: Int, seed: Long = 5L): Hnsw = {
    val pool = new ForkJoinPool(threads)
    try pool.submit(new Callable[Hnsw] {
      def call(): Hnsw = {
        val h = new Hnsw(dim, m = 12, efConstruction = 100, seed = seed)
        h.addAll(data)
        h
      }
    }).get()
    finally pool.shutdown()
  }

  test("addAll builds the same graph on 1 and 4 threads") {
    val (h1, h4) = (buildAll(1), buildAll(4))
    assert(h1.size == data.size && h4.size == data.size)
    for (i <- 0 until data.size; l <- 0 until 32)
      assert(h1.neighbors(i, l).toSeq == h4.neighbors(i, l).toSeq, s"node $i level $l")
    data.take(50).foreach(q => assert(h1.search(q, 10, 64).toSeq == h4.search(q, 10, 64).toSeq))
  }

  test("addAll recall@10 is within 0.005 of the serial build's at ef 16 and 96") {
    val r = new Random(19)
    // Half the queries sit inside the clusters, half anywhere. A query far
    // from every cluster can land in the wrong one and miss all 10, which
    // alone moves one build's recall by exactly 0.005; hence the 1e-9 slack.
    val qs = IndexedSeq.tabulate(100)(i => data(i * 15).map(_ + 0.1f * r.nextGaussian().toFloat)) ++
      IndexedSeq.fill(100)(Array.fill(dim)(r.nextGaussian().toFloat))
    val exact = qs.map(BruteForce.search(data, _, 10))
    def recall(h: Hnsw, ef: Int) =
      qs.indices.map(i => AnnFixtures.recallAtK(h.search(qs(i), 10, ef), exact(i))).sum / qs.size
    val seeds = 1L to 5L
    val builds = seeds.map { seed =>
      val serial = new Hnsw(dim, m = 12, efConstruction = 100, seed = seed)
      data.foreach(serial.add)
      (seed, serial, buildAll(4, seed))
    }
    Seq(16, 96).foreach { ef =>
      val rs = builds.map { case (seed, serial, batched) =>
        val (s, b) = (recall(serial, ef), recall(batched, ef))
        assert(b >= s - 0.005 - 1e-9, s"seed $seed ef=$ef: addAll $b vs serial $s")
        (s, b)
      }
      info(f"ef=$ef: mean recall@10 over ${seeds.size} seeds: serial ${rs.map(_._1).sum / rs.size}%.4f, " +
        f"addAll ${rs.map(_._2).sum / rs.size}%.4f")
    }
  }

  test("health: every node reachable on layer 0 and every degree within its cap") {
    Seq(build(), buildAll(4)).foreach { h =>
      val health = h.health
      assert(health.unreachable == 0)
      assert(health.levels.sum == h.size)
      assert(health.levels.head > 0 && health.levels.size >= 2)
      health.degrees.zipWithIndex.foreach { case (d, l) =>
        assert(d.min <= d.mean && d.mean <= d.max, s"level $l: $d")
        // A level shared by two or more nodes leaves none of them unlinked.
        if (health.levels.drop(l).sum > 1) assert(d.min >= 1, s"level $l: $d")
        assert(d.max <= (if (l == 0) 2 * h.m else h.m), s"level $l: $d")
      }
    }
  }

  test("search counters repeat exactly and stay below n distances at ef 64") {
    val h = build()
    val r = new Random(23)
    val qs = IndexedSeq.fill(20)(Array.fill(dim)(r.nextGaussian().toFloat))
    def counts(q: Array[Float]) = {
      val st = new Hnsw.SearchStats
      h.search(q, 10, 64, st)
      (st.distances, st.visited)
    }
    qs.foreach { q =>
      val c = counts(q)
      assert(c == counts(q))
      assert(c._1 > 0 && c._1 < data.size && c._2 > 0, s"counts $c")
    }
    val total = new Hnsw.SearchStats
    qs.foreach(h.search(_, 10, 64, total))
    assert(total.distances == qs.map(counts(_)._1).sum)
  }

  test("search with ef >= n is exact when layer 0 is strongly connected, with ties and duplicates (property)") {
    import org.scalacheck.{Gen, Prop, Test => SCTest}
    // Coordinates from a 4-value grid and copied points give exact ties and
    // duplicate vectors. Within a run of equal distances the two may list
    // ids in different orders (BruteForce by id, the heap by its sift
    // order), so ids are checked as an exact answer: distinct, each at its
    // reported distance, and the distance list equal to BruteForce's.
    //
    // The precondition is that every layer-0 node reaches every other.
    // `health.unreachable == 0` is not enough: it walks from the entry
    // point, while search enters layer 0 where the greedy descent ends.
    // Counterexample (m=2, efC=4, addAll, n=16, ef=20): health reports 0
    // unreachable nodes and search misses two of the 9 nearest.
    val grid = Gen.oneOf(-1.0f, 0.0f, 0.5f, 1.0f)
    val input = for {
      d <- Gen.choose(1, 4)
      n <- Gen.choose(1, 40)
      pts <- Gen.listOfN(n, Gen.listOfN(d, grid).map(_.toArray))
      dupOf <- Gen.listOfN(n, Gen.choose(-n, n - 1)) // >= 0: copy that point
      m <- Gen.oneOf(2, 4, 8)
      efC <- Gen.oneOf(4, 16, 64)
      bulk <- Gen.oneOf(false, true)
      q <- Gen.oneOf(Gen.choose(0, n - 1).map(Left(_)), Gen.listOfN(d, grid).map(c => Right(c.toArray)))
      k <- Gen.choose(1, n + 2)
      efExtra <- Gen.choose(0, 4)
    } yield {
      val vs = pts.indices.map(i => if (dupOf(i) >= 0 && dupOf(i) < i) pts(dupOf(i)).clone() else pts(i))
      (d, vs, m, efC, bulk, q.fold(vs(_), identity), k, vs.size + efExtra)
    }
    def reachable(h: Hnsw, from: Int): Int = {
      val seen = new Array[Boolean](h.size)
      seen(from) = true
      var stack = List(from)
      var count = 1
      while (stack.nonEmpty) {
        val c = stack.head
        stack = stack.tail
        h.neighbors(c, 0).foreach(x => if (!seen(x)) { seen(x) = true; count += 1; stack = x :: stack })
      }
      count
    }
    var checked = 0
    val prop = Prop.forAllNoShrink(input) { case (d, vs, m, efC, bulk, q, k, ef) =>
      val h = new Hnsw(d, m = m, efConstruction = efC, seed = vs.size.toLong)
      if (bulk) h.addAll(vs) else vs.foreach(h.add)
      if (vs.indices.exists(reachable(h, _) < vs.size)) Prop.undecided
      else {
        checked += 1
        val got = h.search(q, k, ef)
        val want = BruteForce.search(vs, q, k)
        Prop(h.health.unreachable == 0 &&
          got.map(_._2).sameElements(want.map(_._2)) &&
          got.map(_._1).distinct.length == got.length &&
          got.forall { case (id, dist) => VecOps.l2(q, vs(id)) == dist }) :|
          s"n=${vs.size} m=$m efC=$efC bulk=$bulk k=$k ef=$ef got ${got.toSeq} want ${want.toSeq}"
      }
    }
    val params = SCTest.Parameters.default.withMinSuccessfulTests(500)
      .withInitialSeed(org.scalacheck.rng.Seed(2024L))
    val res = SCTest.check(params, prop)
    assert(res.passed, res.status.toString)
    info(s"$checked graphs checked, ${res.discarded} skipped as not strongly connected")
  }
}
