package repro.core

import org.scalatest.funsuite.AnyFunSuite

import scala.util.Random

/** Top-K SSS (Appendix E): the heap-based search must equal sorting all
  * per-trajectory optima.
  */
class TopKSpec extends AnyFunSuite {

  private def db(seed: Int, n: Int): Seq[(Long, IndexedSeq[Point])] = {
    val r = new Random(seed)
    (0 until n).map(i => (i.toLong, TestGen.randPoints(r, 4 + r.nextInt(12))))
  }

  for (k <- Seq(1, 3, 5); seed <- 0 until 5)
    test(s"topK == sorted per-trajectory optima [k=$k seed=$seed]") {
      val data = db(seed, 12)
      val q = TestGen.randPoints(new Random(seed + 50), 5)
      val fn = Dist.dtw
      val got = TopK.cma(q, data, k, fn)
      val want = data.map { case (id, d) =>
        val r = CMA.search(q, d, fn); (id, r.dist)
      }.sortBy { case (id, dist) => (dist, id) }.take(k)
      assert(got.length == math.min(k, data.size))
      for ((h, (wid, wdist)) <- got.zip(want)) {
        TestGen.assertSameDist(h.dist, wdist)
        assert(h.trajId == wid || math.abs(h.dist - wdist) < 1e-12)
      }
    }

  test("topK with k larger than the database returns everything, sorted") {
    val data = db(3, 4)
    val got = TopK.cma(TestGen.randPoints(new Random(9), 4), data, 10, Dist.dtw)
    assert(got.length == 4)
    assert(got.map(_.dist).toSeq == got.map(_.dist).toSeq.sorted)
  }

  test("topK hits carry achievable intervals") {
    val data = db(7, 8)
    val q = TestGen.randPoints(new Random(8), 5)
    for (h <- TopK.cma(q, data, 3, Dist.fd)) {
      val d = data.find(_._1 == h.trajId).get._2
      TestGen.assertSameDist(FullDist.dist(q, d.slice(h.start - 1, h.end), Dist.fd), h.dist)
    }
  }

  test("topK search sees +inf until k hits are held, then the k-th best distance") {
    val data = db(4, 8)
    val q = TestGen.randPoints(new Random(10), 4)
    val seen = scala.collection.mutable.ArrayBuffer.empty[Double]
    TopK.searchBelow(q, data, 2, (a: IndexedSeq[Point], b: IndexedSeq[Point], kth: Double) => {
      seen += kth; Some(CMA.search(a, b, Dist.dtw))
    })
    val dists = data.map { case (_, d) => CMA.search(q, d, Dist.dtw).dist }
    val want = dists.indices.map(i =>
      if (i < 2) Double.PositiveInfinity else dists.take(i).sorted.apply(1))
    assert(seen.toSeq == want)
  }

  // A filter in front of the search answers None whatever the k-th best,
  // +inf included (at k = 3, trajectory 1): the loop holds and ranks only
  // the answered hits, and at k = 12, all of the data, returns those 8.
  for (k <- Seq(1, 3, 12))
    test(s"a search that answers None before k hits are held is skipped [k=$k]") {
      val data = db(5, 12)
      val q = TestGen.randPoints(new Random(11), 5)
      def answers(id: Long) = id % 3 != 1 // None for ids 1, 4, 7 and 10
      val seen = scala.collection.mutable.ArrayBuffer.empty[Double]
      val got = TopK.searchBelow(q, data.map { case (id, d) => (id, (id, d)) }, k,
        (a: IndexedSeq[Point], b: (Long, IndexedSeq[Point]), kth: Double) => {
          seen += kth
          if (answers(b._1)) Some(CMA.search(a, b._2, Dist.dtw)) else None
        })
      val answered = data.filter { case (id, _) => answers(id) }
      assert(got.toSeq == TopK.cma(q, answered, k, Dist.dtw).toSeq)
      val want = data.indices.map { i =>
        val held = answered.takeWhile(_._1 < i).map { case (_, d) => CMA.search(q, d, Dist.dtw).dist }
        if (held.length < k) Double.PositiveInfinity else held.sorted.apply(k - 1)
      }
      assert(seen.toSeq == want)
    }

  test("a closer hit evicts the highest id among hits tied at the k-th distance") {
    val r = new Random(12)
    val (far, near) = (TestGen.randPoints(r, 6), TestGen.randPoints(r, 6))
    val q = near.take(3)
    val data = Seq(0L -> far, 1L -> far, 2L -> far, 3L -> near, 4L -> far)
    assert(CMA.search(q, near, Dist.dtw).dist < CMA.search(q, far, Dist.dtw).dist)
    assert(TopK.cma(q, data, 3, Dist.dtw).map(_.trajId).toSeq == Seq(3L, 0L, 1L))
  }

  // Data in any order: copies of five trajectories under new ids tie with
  // them exactly (half the queries are pieces of a copied one), and EDR's
  // integer distances tie at the k-th. The hits are TopK.cma's over the
  // data in id order, hit for hit.
  for (fn <- Seq(Dist.dtw, Dist.edr(0.3)); k <- Seq(1, 3, 10))
    test(s"searchBelow with CMA.searchBelow == TopK.cma hit for hit in any data order [${fn.name} k=$k]") {
      var tiesAtK = 0
      for (seed <- 0 until 12) {
        val r = new Random(seed * 13 + k)
        val base = db(seed + 200, 14)
        val data = base ++ base.take(5).map { case (id, d) => (id + 50, d) }
        val q = if (seed % 2 == 0) base(r.nextInt(5))._2.take(4) else TestGen.randPoints(r, 5)
        val want = TopK.cma(q, data, k, fn)
        for (_ <- 0 until 4) {
          val got = TopK.searchBelow(q, r.shuffle(data), k,
            (a: IndexedSeq[Point], b: IndexedSeq[Point], kth: Double) => CMA.searchBelow(a, b, fn, kth))
          assert(got.toSeq == want.toSeq, s"seed=$seed")
        }
        val dists = data.map { case (_, d) => CMA.search(q, d, fn).dist }
        if (dists.count(_ == want.last.dist) > want.count(_.dist == want.last.dist)) tiesAtK += 1
      }
      assert(tiesAtK > 0, "no tie crossed the k-th place")
    }

  test("a trajectory whose id is below the k-th hit's is handed Math.nextUp of the k-th distance") {
    // Descending ids: from the third trajectory on, every id is below the
    // k-th hit's, so an equal distance would take its place.
    val data = db(6, 8).reverse
    val q = TestGen.randPoints(new Random(13), 4)
    val seen = scala.collection.mutable.ArrayBuffer.empty[Double]
    TopK.searchBelow(q, data, 2, (a: IndexedSeq[Point], b: IndexedSeq[Point], kth: Double) => {
      seen += kth; Some(CMA.search(a, b, Dist.dtw))
    })
    val dists = data.map { case (_, d) => CMA.search(q, d, Dist.dtw).dist }
    val want = dists.indices.map(i =>
      if (i < 2) Double.PositiveInfinity else Math.nextUp(dists.take(i).sorted.apply(1)))
    assert(seen.toSeq == want)
  }

  test("topK rejects k < 1") {
    intercept[IllegalArgumentException] {
      TopK.cma(TestGen.randPoints(new Random(1), 3), db(1, 3), 0, Dist.dtw)
    }
  }

  test("topK rejects an empty data trajectory") {
    val data = Seq((0L, IndexedSeq.empty[Point]), (1L, TestGen.randPoints(new Random(2), 6)))
    intercept[IllegalArgumentException] {
      TopK.cma(TestGen.randPoints(new Random(3), 3), data, 5, Dist.dtw)
    }
  }
}
