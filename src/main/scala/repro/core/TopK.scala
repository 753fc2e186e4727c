package repro.core

/** Top-K similar subtrajectory search over a set of data trajectories
  * (Appendix E): keep a size-K max-heap of per-trajectory optima, inserting
  * the result of one SSS invocation per data trajectory.
  */
object TopK {

  /** A per-trajectory search hit. */
  final case class Hit(trajId: Long, start: Int, end: Int, dist: Double)

  /** Answer order: ascending distance, ties to the lower trajectory id. */
  private val ranked: Ordering[Hit] = Ordering.by((h: Hit) => (h.dist, h.trajId))

  /** The `k` first of `hits` in answer order, e.g. the global top-K of
    * per-partition top-K lists.
    */
  def merge(hits: Array[Hit], k: Int): Array[Hit] = hits.sorted(ranked).take(k)

  /** K best hits (ascending distance), one per data trajectory, using
    * `search` for every trajectory: the k first in answer order, whatever
    * order the data arrives in.
    */
  def search[Q, D](q: Q, data: Iterable[(Long, D)], k: Int,
                   search: (Q, D) => SubtrajResult): Array[Hit] =
    searchBelow(q, data, k, (a: Q, b: D, _: Double) => Some(search(a, b)))

  /** The one incumbent loop, with one hook: [[search]] with a search that
    * sees a threshold and may answer `None` for any reason (a bound that
    * reaches it, [[bestFirst]], or a DP stopped early,
    * `CMA.searchBelow`); that trajectory never enters the heap. The
    * threshold is `+inf` until k hits are held, then the k-th best distance,
    * or its `Math.nextUp` for a trajectory whose id is below the k-th hit's,
    * which would take its place at an equal distance. A hit replaces the
    * k-th when it is smaller in answer order, so the hits are the k first in
    * answer order, in any data order, where each `None` proves the
    * trajectory's optimum no closer than the threshold it was handed.
    */
  def searchBelow[Q, D](q: Q, data: Iterable[(Long, D)], k: Int,
                        search: (Q, D, Double) => Option[SubtrajResult]): Array[Hit] = {
    require(k >= 1, "k must be >= 1")
    val heap = new scala.collection.mutable.PriorityQueue[Hit]()(ranked) // its head is the k-th best
    for ((id, d) <- data) {
      val threshold = if (heap.size < k) Double.PositiveInfinity
                      else if (id < heap.head.trajId) Math.nextUp(heap.head.dist) else heap.head.dist
      search(q, d, threshold).map(r => Hit(id, r.start, r.end, r.dist)).foreach { h =>
        if (heap.size < k) heap.enqueue(h)
        else if (ranked.lt(h, heap.head)) { heap.dequeue(); heap.enqueue(h) }
      }
    }
    heap.toArray.sorted(ranked)
  }

  /** Best-first top-K (Seidl & Kriegel's multi-step k-NN, Appendix E): every
    * trajectory is keyed by `bound` before the first search (`None` drops
    * it), so a bound that throws does so before any search; the rest are
    * visited by [[searchBelow]] in ascending `(bound, trajId)` order (ties to
    * the lower id, bounds under `Ordering.Double.TotalOrdering`), and a
    * trajectory whose bound is `>=` the threshold it is handed answers
    * `None` without reaching `search`. The hits are the full search's where
    * each bound is `<=` its trajectory's optimum.
    */
  def bestFirst[Q, D](q: Q, data: Iterable[(Long, D)], k: Int, bound: D => Option[Double],
                      search: (Q, D, Double) => Option[SubtrajResult]): Array[Hit] = {
    val keyed = data.flatMap { case (id, d) => bound(d).map(b => (id, (b, d))) }.toSeq
      .sortBy { case (id, (b, _)) => (b, id) }(Ordering.Tuple2(Ordering.Double.TotalOrdering, Ordering.Long))
    searchBelow(q, keyed, k, (a: Q, bd: (Double, D), kth: Double) => if (bd._1 >= kth) None else search(a, bd._2, kth))
  }

  /** Top-K with the full CMA under `fn`: the unpruned reference. */
  def cma[T](q: IndexedSeq[T], data: Iterable[(Long, IndexedSeq[T])], k: Int,
             fn: DistFn[T]): Array[Hit] =
    search(q, data, k, (a: IndexedSeq[T], b: IndexedSeq[T]) => CMA.search(a, b, fn))
}
