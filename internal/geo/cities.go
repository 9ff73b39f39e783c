package geo

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// City is a metropolitan area known to the simulator. Cities are identified
// by their IATA metropolitan or primary-airport code, following the paper's
// practice of mapping probes to the closest airport within the same country
// and using its IATA code as the city code (§3.1).
type City struct {
	IATA    string // IATA metropolitan or primary-airport code
	Name    string // English city name
	Country string // ISO alpha-2 country code
	Coord   Coord
}

// Area returns the paper probe area the city belongs to.
func (c City) Area() Area { return AreaOf(c.Country) }

// Continent returns the continent of the city's country.
func (c City) Continent() Continent { return ContinentOf(c.Country) }

// String renders the city as "IATA (Name, CC)".
func (c City) String() string {
	return fmt.Sprintf("%s (%s, %s)", c.IATA, c.Name, c.Country)
}

// cities is the embedded city registry, sorted by IATA code once at init.
// Coordinates are city centroids to roughly 0.01 degrees, which is far finer
// than any distance threshold the reproduction uses (the smallest is the
// 1.5 ms / 150 km RTT-range rule).
var cities = sortedByIATA([]City{
	// United States.
	{IATA: "NYC", Name: "New York", Country: "US", Coord: Coord{40.71, -74.01}},
	{IATA: "WAS", Name: "Washington D.C.", Country: "US", Coord: Coord{38.91, -77.04}},
	{IATA: "IAD", Name: "Ashburn", Country: "US", Coord: Coord{39.04, -77.49}},
	{IATA: "BOS", Name: "Boston", Country: "US", Coord: Coord{42.36, -71.06}},
	{IATA: "PHL", Name: "Philadelphia", Country: "US", Coord: Coord{39.95, -75.17}},
	{IATA: "ATL", Name: "Atlanta", Country: "US", Coord: Coord{33.75, -84.39}},
	{IATA: "MIA", Name: "Miami", Country: "US", Coord: Coord{25.77, -80.19}},
	{IATA: "TPA", Name: "Tampa", Country: "US", Coord: Coord{27.95, -82.46}},
	{IATA: "CHI", Name: "Chicago", Country: "US", Coord: Coord{41.88, -87.63}},
	{IATA: "DFW", Name: "Dallas", Country: "US", Coord: Coord{32.78, -96.80}},
	{IATA: "HOU", Name: "Houston", Country: "US", Coord: Coord{29.76, -95.37}},
	{IATA: "DEN", Name: "Denver", Country: "US", Coord: Coord{39.74, -104.99}},
	{IATA: "PHX", Name: "Phoenix", Country: "US", Coord: Coord{33.45, -112.07}},
	{IATA: "LAX", Name: "Los Angeles", Country: "US", Coord: Coord{34.05, -118.24}},
	{IATA: "SJC", Name: "San Jose", Country: "US", Coord: Coord{37.34, -121.89}},
	{IATA: "SFO", Name: "San Francisco", Country: "US", Coord: Coord{37.77, -122.42}},
	{IATA: "SEA", Name: "Seattle", Country: "US", Coord: Coord{47.61, -122.33}},
	{IATA: "PDX", Name: "Portland", Country: "US", Coord: Coord{45.52, -122.68}},
	{IATA: "LAS", Name: "Las Vegas", Country: "US", Coord: Coord{36.17, -115.14}},
	{IATA: "SLC", Name: "Salt Lake City", Country: "US", Coord: Coord{40.76, -111.89}},
	{IATA: "MSP", Name: "Minneapolis", Country: "US", Coord: Coord{44.98, -93.27}},
	{IATA: "DTW", Name: "Detroit", Country: "US", Coord: Coord{42.33, -83.05}},
	{IATA: "CLT", Name: "Charlotte", Country: "US", Coord: Coord{35.23, -80.84}},
	{IATA: "MCI", Name: "Kansas City", Country: "US", Coord: Coord{39.10, -94.58}},
	{IATA: "STL", Name: "St. Louis", Country: "US", Coord: Coord{38.63, -90.20}},
	{IATA: "SAN", Name: "San Diego", Country: "US", Coord: Coord{32.72, -117.16}},
	{IATA: "AUS", Name: "Austin", Country: "US", Coord: Coord{30.27, -97.74}},
	{IATA: "BNA", Name: "Nashville", Country: "US", Coord: Coord{36.16, -86.78}},
	{IATA: "PIT", Name: "Pittsburgh", Country: "US", Coord: Coord{40.44, -79.99}},
	{IATA: "ANC", Name: "Anchorage", Country: "US", Coord: Coord{61.22, -149.90}},
	{IATA: "HNL", Name: "Honolulu", Country: "US", Coord: Coord{21.31, -157.86}},

	// Canada.
	{IATA: "YYZ", Name: "Toronto", Country: "CA", Coord: Coord{43.65, -79.38}},
	{IATA: "YUL", Name: "Montreal", Country: "CA", Coord: Coord{45.50, -73.57}},
	{IATA: "YVR", Name: "Vancouver", Country: "CA", Coord: Coord{49.28, -123.12}},
	{IATA: "YYC", Name: "Calgary", Country: "CA", Coord: Coord{51.05, -114.07}},
	{IATA: "YOW", Name: "Ottawa", Country: "CA", Coord: Coord{45.42, -75.70}},
	{IATA: "YEG", Name: "Edmonton", Country: "CA", Coord: Coord{53.55, -113.49}},
	{IATA: "YWG", Name: "Winnipeg", Country: "CA", Coord: Coord{49.90, -97.14}},
	{IATA: "YHZ", Name: "Halifax", Country: "CA", Coord: Coord{44.65, -63.57}},

	// Mexico, Central America, Caribbean.
	{IATA: "MEX", Name: "Mexico City", Country: "MX", Coord: Coord{19.43, -99.13}},
	{IATA: "GDL", Name: "Guadalajara", Country: "MX", Coord: Coord{20.67, -103.35}},
	{IATA: "MTY", Name: "Monterrey", Country: "MX", Coord: Coord{25.67, -100.31}},
	{IATA: "PTY", Name: "Panama City", Country: "PA", Coord: Coord{8.98, -79.52}},
	{IATA: "SJO", Name: "San Jose CR", Country: "CR", Coord: Coord{9.93, -84.08}},
	{IATA: "GUA", Name: "Guatemala City", Country: "GT", Coord: Coord{14.63, -90.51}},
	{IATA: "SAL", Name: "San Salvador", Country: "SV", Coord: Coord{13.69, -89.19}},
	{IATA: "SDQ", Name: "Santo Domingo", Country: "DO", Coord: Coord{18.47, -69.90}},
	{IATA: "SJU", Name: "San Juan", Country: "PR", Coord: Coord{18.47, -66.11}},
	{IATA: "KIN", Name: "Kingston", Country: "JM", Coord: Coord{17.97, -76.79}},
	{IATA: "HAV", Name: "Havana", Country: "CU", Coord: Coord{23.11, -82.37}},
	{IATA: "POS", Name: "Port of Spain", Country: "TT", Coord: Coord{10.65, -61.50}},

	// South America.
	{IATA: "BOG", Name: "Bogota", Country: "CO", Coord: Coord{4.71, -74.07}},
	{IATA: "MDE", Name: "Medellin", Country: "CO", Coord: Coord{6.25, -75.56}},
	{IATA: "LIM", Name: "Lima", Country: "PE", Coord: Coord{-12.05, -77.04}},
	{IATA: "UIO", Name: "Quito", Country: "EC", Coord: Coord{-0.18, -78.47}},
	{IATA: "SCL", Name: "Santiago", Country: "CL", Coord: Coord{-33.45, -70.67}},
	{IATA: "BUE", Name: "Buenos Aires", Country: "AR", Coord: Coord{-34.60, -58.38}},
	{IATA: "COR", Name: "Cordoba", Country: "AR", Coord: Coord{-31.42, -64.18}},
	{IATA: "MVD", Name: "Montevideo", Country: "UY", Coord: Coord{-34.90, -56.16}},
	{IATA: "ASU", Name: "Asuncion", Country: "PY", Coord: Coord{-25.26, -57.58}},
	{IATA: "SAO", Name: "Sao Paulo", Country: "BR", Coord: Coord{-23.55, -46.63}},
	{IATA: "RIO", Name: "Rio de Janeiro", Country: "BR", Coord: Coord{-22.91, -43.17}},
	{IATA: "POA", Name: "Porto Alegre", Country: "BR", Coord: Coord{-30.03, -51.23}},
	{IATA: "FOR", Name: "Fortaleza", Country: "BR", Coord: Coord{-3.73, -38.52}},
	{IATA: "BSB", Name: "Brasilia", Country: "BR", Coord: Coord{-15.79, -47.88}},
	{IATA: "CCS", Name: "Caracas", Country: "VE", Coord: Coord{10.48, -66.90}},
	{IATA: "LPB", Name: "La Paz", Country: "BO", Coord: Coord{-16.49, -68.12}},

	// Western & Northern Europe.
	{IATA: "LON", Name: "London", Country: "GB", Coord: Coord{51.51, -0.13}},
	{IATA: "MAN", Name: "Manchester", Country: "GB", Coord: Coord{53.48, -2.24}},
	{IATA: "DUB", Name: "Dublin", Country: "IE", Coord: Coord{53.35, -6.26}},
	{IATA: "AMS", Name: "Amsterdam", Country: "NL", Coord: Coord{52.37, 4.90}},
	{IATA: "ENS", Name: "Enschede", Country: "NL", Coord: Coord{52.22, 6.90}},
	{IATA: "BRU", Name: "Brussels", Country: "BE", Coord: Coord{50.85, 4.35}},
	{IATA: "PAR", Name: "Paris", Country: "FR", Coord: Coord{48.86, 2.35}},
	{IATA: "MRS", Name: "Marseille", Country: "FR", Coord: Coord{43.30, 5.37}},
	{IATA: "LYS", Name: "Lyon", Country: "FR", Coord: Coord{45.76, 4.84}},
	{IATA: "MAD", Name: "Madrid", Country: "ES", Coord: Coord{40.42, -3.70}},
	{IATA: "BCN", Name: "Barcelona", Country: "ES", Coord: Coord{41.39, 2.17}},
	{IATA: "LIS", Name: "Lisbon", Country: "PT", Coord: Coord{38.72, -9.14}},
	{IATA: "FRA", Name: "Frankfurt", Country: "DE", Coord: Coord{50.11, 8.68}},
	{IATA: "MUC", Name: "Munich", Country: "DE", Coord: Coord{48.14, 11.58}},
	{IATA: "BER", Name: "Berlin", Country: "DE", Coord: Coord{52.52, 13.41}},
	{IATA: "DUS", Name: "Dusseldorf", Country: "DE", Coord: Coord{51.23, 6.78}},
	{IATA: "HAM", Name: "Hamburg", Country: "DE", Coord: Coord{53.55, 9.99}},
	{IATA: "ZRH", Name: "Zurich", Country: "CH", Coord: Coord{47.37, 8.54}},
	{IATA: "GVA", Name: "Geneva", Country: "CH", Coord: Coord{46.20, 6.15}},
	{IATA: "VIE", Name: "Vienna", Country: "AT", Coord: Coord{48.21, 16.37}},
	{IATA: "LUX", Name: "Luxembourg", Country: "LU", Coord: Coord{49.61, 6.13}},
	{IATA: "CPH", Name: "Copenhagen", Country: "DK", Coord: Coord{55.68, 12.57}},
	{IATA: "OSL", Name: "Oslo", Country: "NO", Coord: Coord{59.91, 10.75}},
	{IATA: "STO", Name: "Stockholm", Country: "SE", Coord: Coord{59.33, 18.07}},
	{IATA: "HEL", Name: "Helsinki", Country: "FI", Coord: Coord{60.17, 24.94}},
	{IATA: "KEF", Name: "Reykjavik", Country: "IS", Coord: Coord{64.15, -21.94}},

	// Central, Southern & Eastern Europe.
	{IATA: "PRG", Name: "Prague", Country: "CZ", Coord: Coord{50.08, 14.44}},
	{IATA: "WAW", Name: "Warsaw", Country: "PL", Coord: Coord{52.23, 21.01}},
	{IATA: "BUD", Name: "Budapest", Country: "HU", Coord: Coord{47.50, 19.04}},
	{IATA: "OTP", Name: "Bucharest", Country: "RO", Coord: Coord{44.43, 26.10}},
	{IATA: "SOF", Name: "Sofia", Country: "BG", Coord: Coord{42.70, 23.32}},
	{IATA: "BEG", Name: "Belgrade", Country: "RS", Coord: Coord{44.79, 20.45}},
	{IATA: "ZAG", Name: "Zagreb", Country: "HR", Coord: Coord{45.81, 15.98}},
	{IATA: "LJU", Name: "Ljubljana", Country: "SI", Coord: Coord{46.06, 14.51}},
	{IATA: "BTS", Name: "Bratislava", Country: "SK", Coord: Coord{48.15, 17.11}},
	{IATA: "ATH", Name: "Athens", Country: "GR", Coord: Coord{37.98, 23.73}},
	{IATA: "ROM", Name: "Rome", Country: "IT", Coord: Coord{41.90, 12.50}},
	{IATA: "MIL", Name: "Milan", Country: "IT", Coord: Coord{45.46, 9.19}},
	{IATA: "RIX", Name: "Riga", Country: "LV", Coord: Coord{56.95, 24.11}},
	{IATA: "TLL", Name: "Tallinn", Country: "EE", Coord: Coord{59.44, 24.75}},
	{IATA: "VNO", Name: "Vilnius", Country: "LT", Coord: Coord{54.69, 25.28}},
	{IATA: "IEV", Name: "Kyiv", Country: "UA", Coord: Coord{50.45, 30.52}},
	{IATA: "MSQ", Name: "Minsk", Country: "BY", Coord: Coord{53.90, 27.57}},
	{IATA: "KIV", Name: "Chisinau", Country: "MD", Coord: Coord{47.01, 28.86}},

	// Russia.
	{IATA: "MOW", Name: "Moscow", Country: "RU", Coord: Coord{55.76, 37.62}},
	{IATA: "LED", Name: "St. Petersburg", Country: "RU", Coord: Coord{59.93, 30.34}},
	{IATA: "SVX", Name: "Yekaterinburg", Country: "RU", Coord: Coord{56.84, 60.61}},
	{IATA: "OVB", Name: "Novosibirsk", Country: "RU", Coord: Coord{55.03, 82.92}},
	{IATA: "VVO", Name: "Vladivostok", Country: "RU", Coord: Coord{43.12, 131.89}},

	// Turkey & Middle East.
	{IATA: "IST", Name: "Istanbul", Country: "TR", Coord: Coord{41.01, 28.98}},
	{IATA: "ESB", Name: "Ankara", Country: "TR", Coord: Coord{39.93, 32.86}},
	{IATA: "TLV", Name: "Tel Aviv", Country: "IL", Coord: Coord{32.08, 34.78}},
	{IATA: "DXB", Name: "Dubai", Country: "AE", Coord: Coord{25.20, 55.27}},
	{IATA: "AUH", Name: "Abu Dhabi", Country: "AE", Coord: Coord{24.45, 54.38}},
	{IATA: "DOH", Name: "Doha", Country: "QA", Coord: Coord{25.29, 51.53}},
	{IATA: "BAH", Name: "Manama", Country: "BH", Coord: Coord{26.23, 50.58}},
	{IATA: "KWI", Name: "Kuwait City", Country: "KW", Coord: Coord{29.38, 47.98}},
	{IATA: "RUH", Name: "Riyadh", Country: "SA", Coord: Coord{24.71, 46.68}},
	{IATA: "JED", Name: "Jeddah", Country: "SA", Coord: Coord{21.49, 39.19}},
	{IATA: "AMM", Name: "Amman", Country: "JO", Coord: Coord{31.96, 35.95}},
	{IATA: "BEY", Name: "Beirut", Country: "LB", Coord: Coord{33.89, 35.50}},
	{IATA: "MCT", Name: "Muscat", Country: "OM", Coord: Coord{23.59, 58.38}},
	{IATA: "BGW", Name: "Baghdad", Country: "IQ", Coord: Coord{33.31, 44.37}},
	{IATA: "THR", Name: "Tehran", Country: "IR", Coord: Coord{35.69, 51.39}},

	// Africa.
	{IATA: "CAI", Name: "Cairo", Country: "EG", Coord: Coord{30.04, 31.24}},
	{IATA: "CMN", Name: "Casablanca", Country: "MA", Coord: Coord{33.57, -7.59}},
	{IATA: "ALG", Name: "Algiers", Country: "DZ", Coord: Coord{36.75, 3.06}},
	{IATA: "TUN", Name: "Tunis", Country: "TN", Coord: Coord{36.81, 10.18}},
	{IATA: "LOS", Name: "Lagos", Country: "NG", Coord: Coord{6.52, 3.38}},
	{IATA: "ACC", Name: "Accra", Country: "GH", Coord: Coord{5.60, -0.19}},
	{IATA: "ABJ", Name: "Abidjan", Country: "CI", Coord: Coord{5.36, -4.01}},
	{IATA: "DKR", Name: "Dakar", Country: "SN", Coord: Coord{14.72, -17.47}},
	{IATA: "NBO", Name: "Nairobi", Country: "KE", Coord: Coord{-1.29, 36.82}},
	{IATA: "ADD", Name: "Addis Ababa", Country: "ET", Coord: Coord{9.03, 38.74}},
	{IATA: "DAR", Name: "Dar es Salaam", Country: "TZ", Coord: Coord{-6.79, 39.21}},
	{IATA: "EBB", Name: "Kampala", Country: "UG", Coord: Coord{0.35, 32.58}},
	{IATA: "JNB", Name: "Johannesburg", Country: "ZA", Coord: Coord{-26.20, 28.05}},
	{IATA: "CPT", Name: "Cape Town", Country: "ZA", Coord: Coord{-33.92, 18.42}},
	{IATA: "DUR", Name: "Durban", Country: "ZA", Coord: Coord{-29.86, 31.03}},
	{IATA: "LAD", Name: "Luanda", Country: "AO", Coord: Coord{-8.84, 13.23}},
	{IATA: "HRE", Name: "Harare", Country: "ZW", Coord: Coord{-17.83, 31.05}},
	{IATA: "LUN", Name: "Lusaka", Country: "ZM", Coord: Coord{-15.39, 28.32}},
	{IATA: "MRU", Name: "Port Louis", Country: "MU", Coord: Coord{-20.16, 57.50}},
	{IATA: "DLA", Name: "Douala", Country: "CM", Coord: Coord{4.05, 9.70}},

	// East & Southeast Asia.
	{IATA: "TYO", Name: "Tokyo", Country: "JP", Coord: Coord{35.68, 139.69}},
	{IATA: "OSA", Name: "Osaka", Country: "JP", Coord: Coord{34.69, 135.50}},
	{IATA: "FUK", Name: "Fukuoka", Country: "JP", Coord: Coord{33.59, 130.40}},
	{IATA: "SEL", Name: "Seoul", Country: "KR", Coord: Coord{37.57, 126.98}},
	{IATA: "PUS", Name: "Busan", Country: "KR", Coord: Coord{35.18, 129.08}},
	{IATA: "BJS", Name: "Beijing", Country: "CN", Coord: Coord{39.90, 116.41}},
	{IATA: "SHA", Name: "Shanghai", Country: "CN", Coord: Coord{31.23, 121.47}},
	{IATA: "CAN", Name: "Guangzhou", Country: "CN", Coord: Coord{23.13, 113.26}},
	{IATA: "SZX", Name: "Shenzhen", Country: "CN", Coord: Coord{22.54, 114.06}},
	{IATA: "CTU", Name: "Chengdu", Country: "CN", Coord: Coord{30.57, 104.07}},
	{IATA: "HKG", Name: "Hong Kong", Country: "HK", Coord: Coord{22.32, 114.17}},
	{IATA: "TPE", Name: "Taipei", Country: "TW", Coord: Coord{25.03, 121.57}},
	{IATA: "MNL", Name: "Manila", Country: "PH", Coord: Coord{14.60, 120.98}},
	{IATA: "SGN", Name: "Ho Chi Minh City", Country: "VN", Coord: Coord{10.82, 106.63}},
	{IATA: "HAN", Name: "Hanoi", Country: "VN", Coord: Coord{21.03, 105.85}},
	{IATA: "BKK", Name: "Bangkok", Country: "TH", Coord: Coord{13.76, 100.50}},
	{IATA: "KUL", Name: "Kuala Lumpur", Country: "MY", Coord: Coord{3.14, 101.69}},
	{IATA: "SIN", Name: "Singapore", Country: "SG", Coord: Coord{1.35, 103.82}},
	{IATA: "JKT", Name: "Jakarta", Country: "ID", Coord: Coord{-6.21, 106.85}},
	{IATA: "DPS", Name: "Denpasar", Country: "ID", Coord: Coord{-8.65, 115.22}},
	{IATA: "RGN", Name: "Yangon", Country: "MM", Coord: Coord{16.87, 96.20}},
	{IATA: "PNH", Name: "Phnom Penh", Country: "KH", Coord: Coord{11.56, 104.92}},

	// South & Central Asia.
	{IATA: "DAC", Name: "Dhaka", Country: "BD", Coord: Coord{23.81, 90.41}},
	{IATA: "CMB", Name: "Colombo", Country: "LK", Coord: Coord{6.93, 79.85}},
	{IATA: "DEL", Name: "Delhi", Country: "IN", Coord: Coord{28.61, 77.21}},
	{IATA: "BOM", Name: "Mumbai", Country: "IN", Coord: Coord{19.08, 72.88}},
	{IATA: "MAA", Name: "Chennai", Country: "IN", Coord: Coord{13.08, 80.27}},
	{IATA: "BLR", Name: "Bangalore", Country: "IN", Coord: Coord{12.97, 77.59}},
	{IATA: "HYD", Name: "Hyderabad", Country: "IN", Coord: Coord{17.39, 78.49}},
	{IATA: "CCU", Name: "Kolkata", Country: "IN", Coord: Coord{22.57, 88.36}},
	{IATA: "KHI", Name: "Karachi", Country: "PK", Coord: Coord{24.86, 67.01}},
	{IATA: "LHE", Name: "Lahore", Country: "PK", Coord: Coord{31.55, 74.34}},
	{IATA: "ISB", Name: "Islamabad", Country: "PK", Coord: Coord{33.69, 73.04}},
	{IATA: "KTM", Name: "Kathmandu", Country: "NP", Coord: Coord{27.72, 85.32}},
	{IATA: "KBL", Name: "Kabul", Country: "AF", Coord: Coord{34.56, 69.21}},
	{IATA: "ALA", Name: "Almaty", Country: "KZ", Coord: Coord{43.24, 76.95}},
	{IATA: "TAS", Name: "Tashkent", Country: "UZ", Coord: Coord{41.30, 69.24}},
	{IATA: "TBS", Name: "Tbilisi", Country: "GE", Coord: Coord{41.72, 44.79}},
	{IATA: "EVN", Name: "Yerevan", Country: "AM", Coord: Coord{40.18, 44.51}},
	{IATA: "GYD", Name: "Baku", Country: "AZ", Coord: Coord{40.41, 49.87}},
	{IATA: "ULN", Name: "Ulaanbaatar", Country: "MN", Coord: Coord{47.89, 106.91}},

	// Oceania.
	{IATA: "SYD", Name: "Sydney", Country: "AU", Coord: Coord{-33.87, 151.21}},
	{IATA: "MEL", Name: "Melbourne", Country: "AU", Coord: Coord{-37.81, 144.96}},
	{IATA: "BNE", Name: "Brisbane", Country: "AU", Coord: Coord{-27.47, 153.03}},
	{IATA: "PER", Name: "Perth", Country: "AU", Coord: Coord{-31.95, 115.86}},
	{IATA: "ADL", Name: "Adelaide", Country: "AU", Coord: Coord{-34.93, 138.60}},
	{IATA: "AKL", Name: "Auckland", Country: "NZ", Coord: Coord{-36.85, 174.76}},
	{IATA: "WLG", Name: "Wellington", Country: "NZ", Coord: Coord{-41.29, 174.78}},
	{IATA: "NAN", Name: "Nadi", Country: "FJ", Coord: Coord{-17.76, 177.44}},
})

func sortedByIATA(list []City) []City {
	slices.SortFunc(list, func(a, b City) int { return strings.Compare(a.IATA, b.IATA) })
	return list
}

// CityID is a city's rank in Cities(), which is sorted by IATA code, so
// comparing ids orders cities exactly as comparing their codes does.
type CityID uint16

// String returns the city's IATA code.
func (c CityID) String() string { return cities[c].IATA }

// City indexes are package variable initializers so Go's dependency ordering
// runs them after the country indexes they validate against.
var (
	cityIDs         = buildCityIndex()
	citiesByCountry = buildCityCountryIndex()
	// cityKm holds the great-circle distance of every city pair, flat:
	// cityKm[a*len(cities)+b].
	cityKm = buildCityKm()
)

func buildCityIndex() map[string]CityID {
	idx := make(map[string]CityID, len(cities))
	for i, c := range cities {
		if _, dup := idx[c.IATA]; dup {
			panic("geo: duplicate city IATA code " + c.IATA)
		}
		if _, ok := countriesByCode[c.Country]; !ok {
			panic("geo: city " + c.IATA + " references unknown country " + c.Country)
		}
		if !c.Coord.Valid() {
			panic("geo: city " + c.IATA + " has invalid coordinates")
		}
		idx[c.IATA] = CityID(i)
	}
	return idx
}

func buildCityCountryIndex() map[string][]City {
	idx := make(map[string][]City)
	for _, c := range cities {
		idx[c.Country] = append(idx[c.Country], c)
	}
	return idx
}

func buildCityKm() []float64 {
	out := make([]float64, len(cities)*len(cities))
	for i, a := range cities {
		for j, b := range cities {
			out[i*len(cities)+j] = DistanceKm(a.Coord, b.Coord)
		}
	}
	return out
}

// CityIDOf returns the id of the city with the given IATA code. For an
// unknown code it returns an id no city has, on which String and KmBetween
// panic, so a caller holding a registry code may drop ok and still fail
// loudly on a bad one, as MustCity does.
func CityIDOf(code string) (CityID, bool) {
	id, ok := cityIDs[code]
	if !ok {
		return math.MaxUint16, false
	}
	return id, true
}

// KmBetween returns the great-circle distance between two cities: exactly
// DistanceKm of their coordinates, read from a table built at init.
func KmBetween(a, b CityID) float64 { return cityKm[int(a)*len(cities)+int(b)] }

// CityByIATA looks up a city by its IATA code.
func CityByIATA(code string) (City, bool) {
	id, ok := cityIDs[code]
	if !ok {
		return City{}, false
	}
	return cities[id], true
}

// MustCity returns the city for the IATA code or panics. It is intended for
// embedded datasets whose codes are validated at init time.
func MustCity(code string) City {
	c, ok := CityByIATA(code)
	if !ok {
		panic("geo: unknown city IATA code " + code)
	}
	return c
}

// Cities returns all cities ordered by IATA code.
func Cities() []City { return slices.Clone(cities) }

// CitiesIn returns the cities in the given country, ordered by IATA code.
func CitiesIn(countryCode string) []City { return slices.Clone(citiesByCountry[countryCode]) }

// NearestCity returns the city closest to the coordinate, and the distance
// to it in kilometres. It returns ok=false only if the registry is empty.
func NearestCity(c Coord) (City, float64, bool) { return nearest(cities, c) }

// NearestCityIn returns the city in the given country closest to the
// coordinate, following the paper's rule of mapping a probe to the closest
// airport within the same country (§3.1).
func NearestCityIn(countryCode string, c Coord) (City, float64, bool) {
	return nearest(citiesByCountry[countryCode], c)
}

// nearest returns the first of the cities closest to the coordinate.
func nearest(list []City, c Coord) (City, float64, bool) {
	var (
		best     City
		bestDist = -1.0
	)
	for _, city := range list {
		d := DistanceKm(c, city.Coord)
		if bestDist < 0 || d < bestDist {
			best, bestDist = city, d
		}
	}
	return best, bestDist, bestDist >= 0
}
