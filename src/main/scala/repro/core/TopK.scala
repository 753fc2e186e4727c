package repro.core

/** Top-K similar subtrajectory search over a set of data trajectories
  * (Appendix E): keep a size-K max-heap of per-trajectory optima, inserting
  * the result of one SSS invocation per data trajectory.
  */
object TopK {

  /** A per-trajectory search hit. */
  final case class Hit(trajId: Long, start: Int, end: Int, dist: Double)

  /** A `search` gate for trajectories held as `IndexedSeq[T]`: decides
    * whether one is searched, given the current k-th best distance (`+inf`
    * until k hits are held). Algorithm 3's GBP→KPF cascade is one
    * (`repro.pruning.Pruner.gate`).
    */
  type Gate[T] = (IndexedSeq[T], Double) => Boolean

  /** Answer order: ascending distance, ties to the lower trajectory id. */
  private val ranked: Ordering[Hit] = Ordering.by((h: Hit) => (h.dist, h.trajId))

  /** The `k` first of `hits` in answer order, e.g. the global top-K of
    * per-partition top-K lists.
    */
  def merge(hits: Array[Hit], k: Int): Array[Hit] = hits.sorted(ranked).take(k)

  /** K best hits (ascending distance), one per data trajectory, using
    * `search` for each trajectory that `gate` lets through (all of them by
    * default). A hit replaces the k-th best only when strictly closer, and
    * the k-th best is the last held hit in answer order, so over data in
    * ascending id order the hits are the k first in answer order.
    */
  def search[Q, D](q: Q, data: Iterable[(Long, D)], k: Int,
                   search: (Q, D) => SubtrajResult,
                   gate: (D, Double) => Boolean = (_: D, _: Double) => true): Array[Hit] =
    searchBelow(q, data, k, (a: Q, b: D, _: Double) => Some(search(a, b)), gate)

  /** The one incumbent loop: [[search]] with a threshold-aware `search`,
    * which sees the current k-th best distance (`+inf` until k hits are
    * held) and may answer `None` once it proves the trajectory's optimum no
    * closer than that (`CMA.searchBelow`). Such a trajectory could not have
    * replaced the k-th best, so the hits are those of the full search.
    */
  def searchBelow[Q, D](q: Q, data: Iterable[(Long, D)], k: Int,
                        search: (Q, D, Double) => Option[SubtrajResult],
                        gate: (D, Double) => Boolean = (_: D, _: Double) => true): Array[Hit] = {
    require(k >= 1, "k must be >= 1")
    val heap = new scala.collection.mutable.PriorityQueue[Hit]()(ranked) // its head is the k-th best
    for ((id, d) <- data) {
      val kth = if (heap.size < k) Double.PositiveInfinity else heap.head.dist
      if (gate(d, kth)) search(q, d, kth) match {
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
