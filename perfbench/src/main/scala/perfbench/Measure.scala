package perfbench

import java.lang.management.ManagementFactory

import scala.collection.mutable.ArrayBuffer

/** Timing, statistics and heap measurement shared by the workloads. */
object Measure {
  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
  private val memory = ManagementFactory.getMemoryMXBean

  def threadAllocatedBytes(): Long = threads.getCurrentThreadAllocatedBytes

  def timed[T](body: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1e9)
  }

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of nothing")
    val s = xs.sorted
    if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  def mean(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "mean of nothing")
    xs.sum / xs.length
  }

  /** "rep_s=min/q1/median/q3/max rep_mean_s=mean" of rep times, for the
    * summary line.
    */
  def quartiles(xs: Seq[Double]): String = {
    val s = xs.sorted
    def q(p: Double): Double = s(math.min(s.length - 1, (p * (s.length - 1)).round.toInt))
    f"rep_s=${s.head}%.3f/${q(0.25)}%.3f/${median(s)}%.3f/${q(0.75)}%.3f/${s.last}%.3f rep_mean_s=${mean(s)}%.4f"
  }

  /** Repeat `body` until `seconds` have passed and at least `minReps` ran;
    * returns each result with its wall time.
    */
  def repeatFor[T](seconds: Double, minReps: Int)(body: => T): Seq[(T, Double)] = {
    val out = ArrayBuffer.empty[(T, Double)]
    val end = System.nanoTime() + (seconds * 1e9).toLong
    while (out.length < minReps || System.nanoTime() < end) out += timed(body)
    out.toSeq
  }

  /** Heap in use after full collections, repeated until it stops falling. */
  def heapAfterGc(): Long = {
    System.gc()
    var used = memory.getHeapMemoryUsage.getUsed
    var i = 0
    var falling = true
    while (falling && i < 5) {
      System.gc()
      val now = memory.getHeapMemoryUsage.getUsed
      falling = now < used
      used = math.min(used, now)
      i += 1
    }
    used
  }

  /** Bytes retained by what `build` returns, measured across forced GCs. */
  def retainedBytes(build: () => AnyRef): Long = {
    val before = heapAfterGc()
    val kept = build()
    val after = heapAfterGc()
    java.lang.ref.Reference.reachabilityFence(kept)
    after - before
  }
}
