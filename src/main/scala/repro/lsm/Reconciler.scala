package repro.lsm

/** Newest-wins merge of component cursors on primary keys alone (§4.4):
  * the one reconciling merge under scans, row merges and the key pass of
  * the vertical merge.
  *
  * One heap of source indices is ordered by (current key, sequence number
  * descending); `seqs(i)` is source i's sequence number, `Long.MaxValue` for
  * the memory component, and `keys(i)` its cursor's key when it entered the
  * heap (a cursor in the heap does not move). [[next]] positions the next
  * key: the source with the highest sequence number among those holding it
  * wins, and every other source holding that key is shadowed. The winner's cursor stays on the
  * entry until the following [[next]]; shadowed sources advance then too,
  * unless the caller advances them earlier with [[advanceShadowed]].
  */
final class Reconciler(cursors: Array[CompCursor], seqs: Array[Long]) {
  private val keys = new Array[Long](cursors.length)
  private val heap = new java.util.PriorityQueue[Integer](math.max(1, cursors.length),
    (a: Integer, b: Integer) => {
      val c = java.lang.Long.compare(keys(a), keys(b))
      if (c != 0) c else java.lang.Long.compare(seqs(b), seqs(a))
    })
  private val shadowedIdx = new Array[Int](cursors.length)
  private var nShadowed = 0

  /** Source index of the current key's winner; -1 before the first [[next]]. */
  var winner: Int = -1

  cursors.indices.foreach(push)

  private def push(i: Int): Unit = if (cursors(i).advance()) { keys(i) = cursors(i).key; heap.add(i) }

  /** Advances the previous winner and any shadowed source still on the
    * previous key, then positions the next key. False when all are drained.
    */
  def next(): Boolean = {
    if (winner >= 0) push(winner)
    advanceShadowed()
    if (heap.isEmpty) { winner = -1; return false }
    winner = heap.poll()
    val k = keys(winner)
    while (!heap.isEmpty && keys(heap.peek()) == k) {
      shadowedIdx(nShadowed) = heap.poll()
      nShadowed += 1
    }
    true
  }

  def key: Long = keys(winner)
  def cursor: CompCursor = cursors(winner)

  /** Sources holding the current key under the winner, newest first. */
  def numShadowed: Int = nShadowed
  def shadowed(j: Int): Int = shadowedIdx(j)

  /** Moves the shadowed sources past the current key now. */
  def advanceShadowed(): Unit = {
    var j = 0
    while (j < nShadowed) { push(shadowedIdx(j)); j += 1 }
    nShadowed = 0
  }
}
