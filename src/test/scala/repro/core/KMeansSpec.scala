package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** The shared nearest-centroid scan and its tie rule. */
class KMeansSpec extends AnyFunSuite {

  private val q = Array(0.0, 0.0)
  // squared distances from q: 4, 1, 1, 4, 9
  private val cs = Array(Array(2.0, 0.0), Array(0.0, 1.0), Array(-1.0, 0.0), Array(0.0, -2.0), Array(3.0, 0.0))

  test("nearest: on equal squared distances the lowest index wins") {
    val counter = new DistanceCounter
    val nn = KMeans.nearest(q, cs, counter, new KMeans.Nearest)
    assert(nn.i1 == 1 && nn.d1Sq == 1.0 && nn.d2Sq == 1.0 && nn.d1 == 1.0 && nn.d2 == 1.0)
    assert(counter.count == cs.length)
  }

  test("nearest: a held candidate is ranked at its own index and not recomputed") {
    def scan(heldId: Int, heldSq: Double): (KMeans.Nearest, Long) = {
      val counter = new DistanceCounter
      (KMeans.nearest(q, cs, counter, new KMeans.Nearest, heldId, heldSq), counter.count)
    }
    val (lose, count) = scan(heldId = 2, heldSq = 1.0) // ties with 1, loses to the lower index
    assert(lose.i1 == 1 && lose.d2Sq == 1.0)
    assert(count == cs.length - 1)
    assert(scan(heldId = 1, heldSq = 1.0)._1.i1 == 1) // ties with 2, wins at the lower index
    val (given, _) = scan(heldId = 4, heldSq = 0.5) // the held value is used as passed
    assert(given.i1 == 4 && given.d1Sq == 0.5 && given.d2Sq == 1.0)
  }

  test("nearestOther: distance to the nearest other centroid, k - 1 distances") {
    val dup = Array(Array(0.0, 0.0), Array(3.0, 4.0), Array(0.0, 0.0))
    val counter = new DistanceCounter
    val nn = new KMeans.Nearest
    assert(KMeans.nearestOther(0, dup, counter, nn) == 0.0)
    assert(KMeans.nearestOther(1, dup, counter, nn) == 5.0)
    assert(KMeans.nearestOther(2, dup, counter, nn) == 0.0)
    assert(counter.count == 3 * 2)
    assert(KMeans.nearestOther(0, Array(Array(1.0)), counter, nn) == Double.PositiveInfinity)
  }
}
