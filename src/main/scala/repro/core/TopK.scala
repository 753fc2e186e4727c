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
    * `search` for every trajectory. A hit replaces the k-th best only when
    * strictly closer, and the k-th best is the last held hit in answer
    * order, so over data in ascending id order the hits are the k first in
    * answer order.
    */
  def search[Q, D](q: Q, data: Iterable[(Long, D)], k: Int,
                   search: (Q, D) => SubtrajResult): Array[Hit] =
    searchBelow(q, data, k, (a: Q, b: D, _: Double) => Some(search(a, b)))

  /** The one incumbent loop, with one hook: [[search]] with a search that
    * sees the current k-th best distance (`+inf` until k hits are held) and
    * may answer `None` for any reason (a filter, `repro.pruning.Pruner.gate`,
    * or a DP stopped early, `CMA.searchBelow`); that trajectory never enters
    * the heap. The hits are the full search's where each `None` proves the
    * trajectory's optimum no closer than the k-th best it was handed.
    */
  def searchBelow[Q, D](q: Q, data: Iterable[(Long, D)], k: Int,
                        search: (Q, D, Double) => Option[SubtrajResult]): Array[Hit] = {
    require(k >= 1, "k must be >= 1")
    val heap = new scala.collection.mutable.PriorityQueue[Hit]()(ranked) // its head is the k-th best
    for ((id, d) <- data) {
      val kth = if (heap.size < k) Double.PositiveInfinity else heap.head.dist
      search(q, d, kth) match {
        case Some(r) =>
          if (heap.size < k) heap.enqueue(Hit(id, r.start, r.end, r.dist))
          else if (r.dist < kth) { heap.dequeue(); heap.enqueue(Hit(id, r.start, r.end, r.dist)) }
        case None =>
      }
    }
    heap.toArray.sorted(ranked)
  }

  /** Top-K with the full CMA under `fn`: the unpruned reference. */
  def cma[T](q: IndexedSeq[T], data: Iterable[(Long, IndexedSeq[T])], k: Int,
             fn: DistFn[T]): Array[Hit] =
    search(q, data, k, (a: IndexedSeq[T], b: IndexedSeq[T]) => CMA.search(a, b, fn))
}
